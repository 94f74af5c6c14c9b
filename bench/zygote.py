"""Fork server: import padelab once, then run each job in a fresh fork.

Started as `python3 bench/zygote.py SRC_DIR`. It imports padelab.cli from
SRC_DIR, reports its environment, and then serves requests read from
stdin: for each (argv, traced) request it forks a child that runs
padelab.cli.main(argv) with stdout and stderr captured, times main()
inside the child (so the fork stays out of the time), and answers on
stdout with the child's result. Every job therefore starts from the
state just after import, as a command-line call does, and nothing one
job leaves behind can serve the next.

Before its timer starts every child, traced or not, rewrites the
attributes the tracer may replace (tracing.touch_layers), so both kinds
take the same copy-on-write faults on the shared pages outside the timed
region.

A job's memory is the growth of the child's anonymous memory, from the
start of the job to the process's peak. Pages of mapped files (the
interpreter, shared libraries) are not copied at fork: a child faults in
again those it touches, and how many pages each fault maps depends on
the host's page cache, not on the job. So the peak resident set size
(VmHWM) is taken less the file-backed and shared pages at the end, less
the anonymous resident set at the start. It undercounts only where file
pages are mapped after the peak.

The child writes its result frame straight to stdout and the server then
adds a wait-status frame once the child has ended. The server never
holds a job's output, so its own memory, which every child starts from,
stays the same from job to job.

Frames on both pipes are an 8-byte length followed by a pickle.
"""

from __future__ import annotations

import gc
import io
import os
import pickle
import struct
import sys
import time
import traceback

from tracing import Tracer, touch_layers

_HEADER = struct.Struct("<Q")


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(fd: int):
    (n,) = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    return pickle.loads(_read_exact(fd, n))


def write_frame(fd: int, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _memory_kb() -> dict:
    """The sizes in /proc/self/status, in kB: VmHWM, RssAnon, RssFile, ..."""
    with open("/proc/self/status") as fh:
        fields = (line.split(":", 1) for line in fh)
        return {k: int(v.split()[0]) for k, v in fields if v.strip().endswith("kB")}


def _run_child(argv: list, traced: bool, out_fd: int) -> None:
    from padelab import cli

    touch_layers()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = stdout, stderr
    error = None
    anon_start_kb = _memory_kb()["RssAnon"]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    end = _memory_kb()
    result = {"code": code, "seconds": seconds, "stdout": stdout.getvalue(),
              "stderr": stderr.getvalue(), "error": error,
              "memory_kb": end["VmHWM"] - end["RssFile"] - end["RssShmem"] - anon_start_kb}
    if tracer is not None:
        result["summary"] = dict(tracer.summary(), out_bytes=len(result["stdout"].encode()))
        result["spans"] = tracer.spans
    write_frame(out_fd, result)


def serve(src_dir: str) -> None:
    sys.path.insert(0, src_dir)
    import mpmath

    import padelab.cli

    if not os.path.abspath(padelab.cli.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"padelab was imported from {padelab.cli.__file__}, not {src_dir}")
    # move everything imported so far out of the collector's view, so a
    # child's collections do not touch (and copy) the shared pages
    gc.freeze()
    requests, replies = sys.stdin.fileno(), sys.stdout.fileno()
    write_frame(replies, {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
                          "backend": mpmath.libmp.BACKEND, "precision": mpmath.mp.prec})
    while True:
        try:
            argv, traced = read_frame(requests)
        except EOFError:
            return
        pid = os.fork()
        if pid == 0:
            try:
                _run_child(argv, traced, replies)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        write_frame(replies, status)


if __name__ == "__main__":
    serve(sys.argv[1])

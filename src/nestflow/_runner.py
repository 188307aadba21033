"""Warm judge runner: forks one child per test run of a compiled program.

``nestflow.sandbox`` starts this file by path, once per concurrent
judgement, with the interpreter's default flags. It stays
single-threaded and imports only the standard library, never nestflow.
It reads requests from stdin and writes replies to stdout, each a
marshalled tuple behind an 8-byte length:

    (scratch, marshalled code, compile warnings as (message, category, line),
     memory bytes, wall time, stdin bytes)
    -> (exit status or None on timeout, stdout bytes, stderr bytes)

Each child starts its own session under an address-space limit and runs
the code as a fresh ``__main__`` in the scratch directory, as
``python solution.py`` would. The runner feeds and drains the child's
pipes together, kills the child's process group when the child exits or
its wall time runs out, and exits itself at end of input.
"""
import sys

_FRESH = set(sys.modules)  # what the interpreter loaded before this runner's imports

import atexit
import builtins
import gc
import io
import marshal
import os
import resource
import select
import signal
import time
import types
import _frozen_importlib_external
import _warnings

_CHUNK = 1 << 16


def _stdio(fd, name, like):
    """A standard stream on ``fd``, built as the interpreter builds its own."""
    writing = fd > 0
    unbuffered = like.write_through  # set by -u or PYTHONUNBUFFERED alone
    buffering = 0 if writing and unbuffered else -1
    stream = io.open(fd, "wb" if writing else "rb", buffering, closefd=False)
    (stream if buffering == 0 else stream.raw).name = name
    line_buffering = not unbuffered and (fd == 2 or stream.isatty())
    text = io.TextIOWrapper(stream, like.encoding, like.errors, "\n", line_buffering, unbuffered)
    text.mode = "w" if writing else "r"
    return text


def _child(scratch, code, warns, memory, pipes, inherited):
    """Become ``python solution.py`` and run; never returns."""
    os.setsid()
    for fd in inherited:
        os.close(fd)
    for target, fd in enumerate(pipes):
        os.dup2(fd, target)
        os.close(fd)
    resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    os.chdir(scratch)
    for name in set(sys.modules) - _FRESH:
        del sys.modules[name]
    path = os.path.join(os.getcwd(), "solution.py")
    main = types.ModuleType("__main__")
    main.__annotations__ = {}
    main.__builtins__ = builtins
    main.__file__ = path
    main.__cached__ = None
    main.__loader__ = _frozen_importlib_external.SourceFileLoader("__main__", path)
    sys.modules["__main__"] = main
    sys.argv = ["solution.py"]
    sys.orig_argv = sys.orig_argv[:1] + sys.argv
    if not getattr(sys.flags, "safe_path", False):  # else neither puts its directory first
        sys.path[0] = os.path.dirname(path)  # was this file's, holding nestflow's modules
    sys.stdin = sys.__stdin__ = _stdio(0, "<stdin>", sys.__stdin__)
    sys.stdout = sys.__stdout__ = _stdio(1, "<stdout>", sys.__stdout__)
    sys.stderr = sys.__stderr__ = _stdio(2, "<stderr>", sys.__stderr__)
    # The frames below the program's count towards the recursion limit; a
    # program run as a script starts with none.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(sys.getrecursionlimit() + depth)
    for message, category, lineno in warns:
        _warnings.warn_explicit(message, getattr(builtins, category), code.co_filename, lineno)
    try:
        exec(code, main.__dict__)
        status = 0
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException as exc:
        # Printed as the interpreter prints it: from the program's own frame.
        tb = exc.__traceback__.tb_next
        exc.__traceback__ = tb
        sys.last_type, sys.last_value, sys.last_traceback = type(exc), exc, tb
        sys.excepthook(type(exc), exc, tb)
        status = 1
    os._exit(_shut_down(main.__dict__, status))


def _exit_status(code):
    """The exit status for ``SystemExit(code)``, printing a message as the interpreter does."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    print(code, file=sys.stderr)
    return 1


def _shut_down(names, status):
    """The interpreter's exit steps that a program can see; returns the exit status.

    Non-daemon threads are joined and atexit handlers run; then the
    program's globals are cleared and its garbage collected, so that
    finalizers run and a file object left open on stdout is flushed. The
    standard streams are flushed around that, and a failed flush exits 120.
    """
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    flushed = _flush()
    names.clear()
    gc.collect()
    return status if _flush() and flushed else 120


def _flush():
    ok = True
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not getattr(stream, "closed", False):
            try:
                stream.flush()
            except Exception:
                ok = False
    return ok


def _run(channel, scratch, code, warns, memory, wall_time, data):
    """Run one test in a forked child; returns (status or None, stdout, stderr)."""
    code = marshal.loads(code)
    stdin_r, stdin_w = os.pipe()
    stdout_r, stdout_w = os.pipe()
    stderr_r, stderr_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(scratch, code, warns, memory, (stdin_r, stdout_w, stderr_w),
               (*channel, stdin_w, stdout_r, stderr_r))
    deadline = time.monotonic() + wall_time
    for fd in (stdin_r, stdout_w, stderr_w):
        os.close(fd)
    exited = os.pidfd_open(pid)
    poller = select.poll()
    poller.register(exited, select.POLLIN)
    streams = {stdout_r: [], stderr_r: []}
    for fd in streams:
        poller.register(fd, select.POLLIN)
    pending = memoryview(data)
    if pending:
        os.set_blocking(stdin_w, False)
        poller.register(stdin_w, select.POLLOUT)
    else:
        os.close(stdin_w)
    status = None
    live = set(streams) | ({stdin_w} if pending else set())
    while status is None or live:
        left = deadline - time.monotonic()
        if left <= 0:
            break
        for fd, _ in poller.poll(left * 1000):
            if fd == exited:
                # The group goes before the child is reaped, so its id cannot be reused.
                _kill_group(pid)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                poller.unregister(fd)
                continue
            if fd == stdin_w:
                try:
                    pending = pending[os.write(fd, pending[:_CHUNK]):]
                except BrokenPipeError:
                    pending = pending[:0]
                done = not pending
            else:
                chunk = os.read(fd, _CHUNK)
                streams[fd].append(chunk)
                done = not chunk
            if done:
                poller.unregister(fd)
                os.close(fd)
                live.discard(fd)
    timed_out = status is None or bool(live)
    if timed_out:
        _kill_group(pid)
        if status is None:
            os.kill(pid, signal.SIGKILL)  # in case it had not yet left our group
            os.waitpid(pid, 0)
    for fd in live | {exited}:
        os.close(fd)
    if timed_out:
        return None, b"", b""
    return status, b"".join(streams[stdout_r]), b"".join(streams[stderr_r])


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def serve():
    requests, replies = os.fdopen(os.dup(0), "rb"), os.dup(1)
    quiet = os.open(os.devnull, os.O_RDWR)  # no stray output among the replies
    os.dup2(quiet, 0)
    os.dup2(quiet, 1)
    os.close(quiet)
    gc.freeze()  # children then collect only what their program made
    while True:
        header = requests.read(8)
        size = int.from_bytes(header, "big")
        request = requests.read(size)
        if len(header) < 8 or len(request) < size:
            return  # end of input: the parent went away
        reply = marshal.dumps(_run((requests.fileno(), replies), *marshal.loads(request)))
        view = memoryview(len(reply).to_bytes(8, "big") + reply)
        try:
            while view:
                view = view[os.write(replies, view):]
        except BrokenPipeError:
            return


if __name__ == "__main__":
    serve()

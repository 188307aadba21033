"""Warm judge runner: forks one child per test run of a program.

``nestflow.sandbox`` starts this file by path, once per concurrent
judgement, with the interpreter's default flags and pipes as its
standard streams. It stays single-threaded and imports only the
standard library, never nestflow. It reads requests from stdin and
writes replies to stdout, one marshalled tuple each, back to back
(``marshal`` reads exactly one value and raises ``EOFError`` at end
of input):

    (scratch, memory bytes, wall time, stdin bytes)
    -> (exit status or None on timeout, stdout bytes, stderr bytes)

Each child starts its own session under an address-space and file-size
limit, and compiles and runs ``solution.py`` as a fresh ``__main__`` in
the scratch directory, as ``python solution.py`` would, on the standard
streams the interpreter built on the runner's pipes. Under them lie
anonymous in-memory files: the runner writes the input before the fork
and reads the output back after the child is reaped, so no stream can
block either side. It drops the request before the fork and each reply
once it is written, so neither a test's input nor the previous test's
output counts against the child's memory cap. When the child exits, or
is killed when its wall time runs out, the runner kills every process it
left behind, in whatever session: the runner is a child subreaper, so
these all become its children. It exits itself at end of input.
"""
import sys

_FRESH = set(sys.modules)  # what the interpreter loaded before this runner's imports

import atexit
import builtins
import ctypes
import gc
import marshal
import os
import resource
import select
import signal
import types
import _frozen_importlib_external

_PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


def _child(scratch, memory, files, inherited):
    """Become ``python solution.py`` and run; never returns."""
    os.setsid()
    for fd in inherited:
        os.close(fd)
    for target, fd in enumerate(files):
        os.dup2(fd, target)
        os.close(fd)
    for limit in (resource.RLIMIT_AS, resource.RLIMIT_FSIZE):
        resource.setrlimit(limit, (memory, memory))
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
    # The frames below the program's count towards the recursion limit; a
    # program run as a script starts with none.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(sys.getrecursionlimit() + depth)
    try:
        with open(path, "rb") as source:
            code = compile(source.read(), path, "exec", dont_inherit=True)
        exec(code, main.__dict__)
        status = 0
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException as exc:
        # Printed as the interpreter prints it: from the program's own frame,
        # or with no frame when compiling failed.
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


def _run(channel, scratch, memory, wall_time, stdin):
    """Run one test in a forked child on the file ``stdin``, which is then
    closed; returns (status or None, stdout, stderr)."""
    files = [stdin] + [os.memfd_create(name) for name in ("stdout", "stderr")]
    pid = os.fork()
    if pid == 0:
        _child(scratch, memory, files, channel)
    os.close(stdin)
    exited = os.pidfd_open(pid)
    timed_out = not select.select([exited], [], [], wall_time)[0]
    os.close(exited)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    _kill_strays()
    if timed_out:
        for fd in files[1:]:
            os.close(fd)
        return None, b"", b""
    return status, _contents(files[1]), _contents(files[2])


def _contents(fd):
    """All that was written to the file ``fd``, which is then closed."""
    os.lseek(fd, 0, os.SEEK_SET)
    with open(fd, "rb") as file:
        return file.read()


def _become_subreaper():
    """Make this process the reaper of every orphan below it, so that what a
    test child leaves behind, in any session, becomes a child of the runner."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "cannot become a child subreaper")


def _kill_strays():
    """Kill and reap every child of the runner, until none is left.

    Once a test child is reaped, its descendants are the runner's children
    (it is their subreaper), and so are theirs once they are reaped here.
    """
    children = f"/proc/{os.getpid()}/task/{os.getpid()}/children"
    while True:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        with open(children) as listing:
            pids = [int(pid) for pid in listing.read().split()]
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def serve():
    _become_subreaper()
    requests, replies = os.fdopen(os.dup(0), "rb"), os.fdopen(os.dup(1), "wb")
    quiet = os.open(os.devnull, os.O_RDWR)  # no stray output among the replies
    os.dup2(quiet, 0)
    os.dup2(quiet, 1)
    os.close(quiet)
    channel = (requests.fileno(), replies.fileno())
    gc.freeze()  # children then collect only what their program made
    while True:
        try:
            scratch, memory, wall_time, data = marshal.load(requests)
        except (EOFError, ValueError):
            return  # end of input: the parent went away
        stdin = os.memfd_create("stdin")
        with open(stdin, "wb", closefd=False) as file:
            file.write(data)
        del data  # it is in the stdin file, and the child must not start with it
        os.lseek(stdin, 0, os.SEEK_SET)
        try:
            # The reply is a temporary, dropped once written.
            marshal.dump(_run(channel, scratch, memory, wall_time, stdin), replies)
            replies.flush()
        except BrokenPipeError:
            return  # the parent went away


if __name__ == "__main__":
    serve()

"""Warm judge runner: forks one child per test run of a program.

``nestflow.sandbox`` starts this file by path, once per concurrent
judgement, with the interpreter's default flags and pipes as its
standard streams. It stays single-threaded and imports only the
standard library, never nestflow. It reads requests from stdin and
writes replies to stdout, one marshalled value each, back to back
(``marshal`` reads exactly one value and raises ``EOFError`` at end
of input). A request is one judgement: a header and then the input of
each of its ``n`` tests,

    (program bytes, memory bytes, wall time, n), stdin bytes 1, ..., stdin bytes n

and the runner replies once per test, in order, as each test ends,

    (exit status or None on a timeout, stdout bytes, stderr bytes)

and stops after the first reply whose status is not 0, as the judge
does. A program that compiles under the memory cap compiles without it,
so only a test run that ended before its program compiled (a compile
error, or a timeout or memory error while compiling), or a judgement
without tests, has its syntax checked; if that fails, ("syntax", b"",
py_compile's message) takes that reply's place. A judgement without
tests otherwise gets (0, b"", b""), and one whose scratch directory
cannot be set up gets ("scratch", b"", the error) alone.

Each judgement has a scratch directory of its own, removed before the
last reply or when the parent goes away. Each test child runs
``solution.py`` there as ``python solution.py`` would, in a session of
its own under an address-space and file-size limit, on in-memory files.
When it ends, the runner, a child subreaper, kills every process it
left behind, in whatever session. It exits itself at end of input, when
the reply pipe breaks, and when the request pipe hangs up while a test
runs (killing that test's child first, not waiting out its wall time).
"""
import sys

_FRESH = set(sys.modules)  # what the interpreter loaded before this runner's imports

import atexit
import builtins
import ctypes
import gc
import marshal
import os
import py_compile
import resource
import select
import shutil
import signal
import tempfile
import types
import warnings
import _frozen_importlib_external

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
_PR_SET_CHILD_SUBREAPER = 36
_RUNNER = os.getpid()
_prctl = ctypes.CDLL(None, use_errno=True).prctl
_prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
_prctl.restype = ctypes.c_int


def _child(path, memory, files, inherited, compiled):
    """Become ``python solution.py`` and run, writing to the file
    ``compiled`` once the program has compiled; never returns."""
    # Die with the runner, which alone enforces the wall time; if it died
    # before this was set, the child has already been reparented.
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != _RUNNER:
        os._exit(1)
    os.setsid()
    for fd in inherited:
        os.close(fd)
    for target, fd in enumerate(files):
        os.dup2(fd, target)
        os.close(fd)
    for limit in (resource.RLIMIT_AS, resource.RLIMIT_FSIZE):
        resource.setrlimit(limit, (memory, memory))
    main = types.ModuleType("__main__")
    main.__annotations__ = {}
    main.__builtins__ = builtins
    main.__file__ = path
    main.__cached__ = None
    main.__loader__ = _frozen_importlib_external.SourceFileLoader("__main__", path)
    sys.modules["__main__"] = main
    try:
        with open(path, "rb") as source:
            code = compile(source.read(), path, "exec", dont_inherit=True)
        os.write(compiled, b"1")
        os.close(compiled)
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


def _run(inherited, path, memory, wall_time, stdin):
    """Run one test in a forked child on the file ``stdin``, which is then
    closed; returns (status or None, stdout, stderr, whether it compiled).

    ``inherited[0]`` is the request pipe. If the parent goes away while the
    child runs, the child is killed and BrokenPipeError raised."""
    files = [stdin] + [os.memfd_create(name) for name in ("stdout", "stderr")]
    compiled = os.memfd_create("compiled")
    pid = os.fork()
    if pid == 0:
        _child(path, memory, files, inherited, compiled)
    os.close(stdin)
    exited = os.pidfd_open(pid)
    waiting = select.poll()
    waiting.register(exited, select.POLLIN)
    waiting.register(inherited[0], 0)  # reports only a hang-up: the parent went away
    ended = dict(waiting.poll(wall_time * 1000))
    os.close(exited)
    if exited not in ended:  # timed out, or the parent went away
        os.kill(pid, signal.SIGKILL)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    _kill_strays()
    compiled = bool(_contents(compiled))
    if exited not in ended:
        for fd in files[1:]:
            os.close(fd)
        if ended:
            raise BrokenPipeError("the parent went away")
        return None, b"", b"", compiled
    return status, _contents(files[1]), _contents(files[2]), compiled


def _stdin_file(data):
    """A new anonymous in-memory file holding ``data``, rewound."""
    fd = os.memfd_create("stdin")
    with open(fd, "wb", closefd=False) as file:
        file.write(data)
    os.lseek(fd, 0, os.SEEK_SET)
    return fd


def _contents(fd):
    """All that was written to the file ``fd``, which is then closed."""
    os.lseek(fd, 0, os.SEEK_SET)
    with open(fd, "rb") as file:
        return file.read()


def _become_subreaper():
    """Make this process the reaper of every orphan below it, so that what a
    test child leaves behind, in any session, becomes a child of the runner."""
    if _prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
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
        with open(children, "rb") as listing:
            pids = [int(pid) for pid in listing.read().split()]
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _set_shared_state():
    """Give the runner the state that every test child starts from.

    Only the modules the interpreter loaded at start-up stay in
    ``sys.modules``; what the runner dropped is collected here, once, and
    what is left is frozen, so that a child neither frees nor collects
    the runner's objects. ``sys.argv`` is a script's. The frames below the
    program's (``serve`` and its callers, then ``_judge``, ``_run`` and ``_child``) count
    towards the recursion limit, and a program run as a script starts
    with none, so the limit is raised by their number.
    """
    for name in set(sys.modules) - _FRESH:
        del sys.modules[name]
    sys.argv = ["solution.py"]
    sys.orig_argv = sys.orig_argv[:1] + sys.argv
    depth, frame = 3, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(sys.getrecursionlimit() + depth)
    gc.collect()
    gc.freeze()


def _check(inherited):
    """py_compile's message when ``solution.py`` does not compile, else None.

    A child compiles it without limits, warnings ignored, so that what the
    compiler takes stays out of the runner, whose address space every test
    child inherits under its cap. The runner imports py_compile: importing
    it in each check child took longer than the check itself."""
    message = os.memfd_create("check")
    pid = os.fork()
    if pid == 0:
        try:
            for fd in inherited:
                os.close(fd)
            warnings.simplefilter("ignore")
            try:
                with open("solution.py", "rb") as source:
                    compile(source.read(), "solution.py", "exec", dont_inherit=True)
            except Exception as exc:  # what py_compile.compile(doraise=True) wraps
                error = py_compile.PyCompileError(type(exc), exc, "solution.py").msg
                with open(message, "wb", closefd=False) as file:
                    marshal.dump(error.strip(), file)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    return marshal.loads(data) if (data := _contents(message)) else None


def _judge(requests, replies, channel):
    """Read one request and judge it in a scratch directory of its own; send
    every reply but the last, returned once the directory is removed."""
    try:
        program, memory, wall_time, count = marshal.load(requests)
        # One input at a time is in memory, and none once the first child forks.
        stdins = [_stdin_file(marshal.load(requests)) for _ in range(count)]
    except (EOFError, ValueError):
        return None  # end of input: the parent went away
    directory = None
    try:
        try:
            # Its one name, real, is the one the runs see and their errors lose.
            directory = os.path.realpath(tempfile.mkdtemp(prefix="nestflow-sandbox-"))
            with open(os.path.join(directory, "solution.py"), "wb") as source:
                source.write(program)
        except OSError as exc:
            return "scratch", b"", str(exc)
        del program  # so it does not count against any child's memory cap
        os.chdir(directory)
        if not getattr(sys.flags, "safe_path", False):  # else neither puts its directory first
            sys.path[0] = directory  # at first this file's, holding nestflow's modules
        if not stdins:
            return ("syntax", b"", error) if (error := _check(channel)) else (0, b"", b"")
        path, prefix = os.path.join(directory, "solution.py"), os.fsencode(directory + os.sep)
        while stdins:
            stdin = stdins.pop(0)  # each child closes the stdin files of the tests after its own
            status, stdout, stderr, compiled = _run(channel + stdins, path, memory, wall_time, stdin)
            # What compiles under the cap compiles without it: only a run that did not needs the check.
            if not compiled and (error := _check(channel + stdins)):
                return "syntax", b"", error
            reply = status, stdout, stderr.replace(prefix, b"")
            if status != 0 or not stdins:
                return reply  # the last: the judge's own stop rule, or the last test
            marshal.dump(reply, replies)
            replies.flush()
            del reply, stdout, stderr  # so it does not count against the next child's memory cap
    finally:
        for fd in stdins:
            os.close(fd)
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)


def serve():
    _become_subreaper()
    requests, replies = os.fdopen(os.dup(0), "rb"), os.fdopen(os.dup(1), "wb")
    quiet = os.open(os.devnull, os.O_RDWR)  # no stray output among the replies
    os.dup2(quiet, 0)
    os.dup2(quiet, 1)
    os.close(quiet)
    channel = [requests.fileno(), replies.fileno()]
    _set_shared_state()
    try:
        while (last := _judge(requests, replies, channel)) is not None:
            marshal.dump(last, replies)
            replies.flush()
            del last  # so it does not count against the next child's memory cap
    except BrokenPipeError:
        pass  # the parent went away, and the scratch directory with the judgement


if __name__ == "__main__":
    serve()

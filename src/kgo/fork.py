"""The one way kgo gives a part of its work to a second process, and the one
module that knows about processes: apart runs a list of independent works
from the first up in this process and from the last down in a forked child,
until the two meet, where pays says that a child can be forked.  The writer
(cli._render), one work per block, the oracle's bisection
(oracle.lowest_eigenvalues), one work per level, and wavefn.sample, one work
per slice of nodes, use it alike, and load it only once their work is large
enough to repay a child, so no other start compiles it.
"""

import marshal
import os
from contextlib import suppress


def pays() -> bool:
    """Whether a forked child can take a part of the work, which apart's
    caller has found large enough to repay a child's cost: os.fork exists,
    the machine has a second CPU, and the process runs one thread as
    /proc/self/task counts them, native threads such as a BLAS pool included
    (where it cannot be read, no child is forked).  A fork copies the calling
    thread alone, so a lock that another thread holds would stay held in the
    child."""
    if not hasattr(os, "fork") or (os.cpu_count() or 1) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _load(pipe):
    """The value of the next frame of pipe, or None where none loads: the
    writer ended, or was cut off, before the frame was whole.  A frame, the
    marshal of a value's marshal bytes, loads in one read of the pipe, where
    marshal.load makes two reads a float of a list."""
    try:
        return marshal.loads(marshal.load(pipe))
    except (EOFError, ValueError, TypeError):
        return None


def apart(work, count: int):
    """work(i) for i in range(count), in order, as an iterator: where a fork
    pays, this process runs works from the first up and a forked child from
    the last down, each until the first work that the other has claimed;
    elsewhere this process runs them all.  Every result is one that marshal
    writes, and none is None.

    A work's claim is its byte of a shared anonymous mmap, set before it runs
    and never unset, and a byte is loaded and stored whole: so no work goes
    unrun, and one that both find unclaimed where they meet runs in both,
    with the same result, of which this process keeps the child's.  Nothing
    is handed out until both parts are done.  The child reports success,
    with the first index it ran, through a pipe, then sends its results in
    order, each as one frame that loads in one read (_load), which the
    iterator hands out as it arrives; so each process holds at most its own
    part.  The child points its stdin, stdout and stderr at os.devnull, so it
    holds none of the caller's pipes, ends through os._exit whatever happens,
    and ends before its next work once this process is gone.  This process
    reaps the child, or kills and reaps it if its own part raises or the
    iterator is closed, or dropped, before its end.  The child's exit status
    is never read, so a caller that ignores SIGCHLD or reaps children itself
    gets the same results.  If no mmap, pipe or child can be made, or the
    child ends before its report, or a frame does not load, this process runs
    the work itself from the first result it lacks: so the results, and the
    exception that the first failing work(i) raises, are those of one process.
    """
    parent, ends, pid = os.getpid(), [], None
    try:
        if count > 1 and pays():
            import mmap
            claims = mmap.mmap(-1, count)  # zeroed: no work is claimed
            ends += os.pipe()  # [read end, write end]
            pid = os.fork()
    except BaseException as error:
        for end in ends:
            os.close(end)
        # an OSError leaves no memory, file or process to spare: all the work runs here
        if not isinstance(error, OSError):
            raise
    if pid == 0:
        try:
            os.close(ends[0])
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            results, first = [], count
            while first and not claims[first - 1]:
                if os.getppid() != parent:
                    os._exit(0)
                first -= 1
                claims[first] = 1
                results.append(work(first))
            with open(ends[1], "wb") as pipe:
                for result in [first, *reversed(results)]:
                    marshal.dump(marshal.dumps(result), pipe)
        finally:
            os._exit(0)
    results, missing = [], 0
    if pid:
        os.close(ends[1])
        try:
            with open(ends[0], "rb") as pipe:
                while missing < count and not claims[missing]:
                    claims[missing] = 1
                    results.append(work(missing))
                    missing += 1
                if (first := _load(pipe)) is not None:  # the child ran from first <= missing
                    yield from results[:first]
                    results, missing = [], first
                    while missing < count and (result := _load(pipe)) is not None:
                        yield result
                        missing += 1
        except BaseException:
            import signal
            with suppress(ProcessLookupError):  # already ended and reaped by the caller
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            with suppress(ChildProcessError):  # reaped by the caller, or SIGCHLD is ignored
                os.waitpid(pid, 0)
    results += map(work, range(missing, count))
    yield from results

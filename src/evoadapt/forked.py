"""Map a function over a list of independent tasks in two processes: this one
and one forked child.

The even-indexed tasks run here and the odd-indexed ones in the child, each
share in index order. Tasks are not pickled, because the child is a fork of
this process; each result is pickled back through a pipe as soon as it is
done. Errors come out as a serial loop over the tasks would raise them.
Needs POSIX `os.fork`.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback


class ChildDied(RuntimeError):
    """The forked child exited before it sent back a result that was needed."""


def split_map(fn, items: list) -> list:
    """`[fn(item) for item in items]`, with the odd-indexed items run in one
    forked child.

    If some items raise, this raises the exception of the lowest-indexed
    one, the one a serial loop would meet first. An exception from the child
    keeps its type and message and carries the child's traceback as a note.
    A child that exits before it sends a result that is needed raises
    ChildDied, whose message ends with the child's exit status. Once no
    result still to come can change the outcome (this process's share is
    done, or failed below every odd index still unfinished, or was
    interrupted), the child is killed; it is reaped before this returns or
    raises.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _serve_odd_items(fn, items, write_fd)
    os.close(write_fd)
    results = [None] * len(items)
    reaped = False
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            failed_at, failure = len(items), None
            for index in range(0, len(items), 2):
                try:
                    results[index] = fn(items[index])
                except Exception as exc:
                    failed_at, failure = index, exc
                    break
            for index in range(1, failed_at, 2):
                try:
                    sent, ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    _, status = os.waitpid(pid, 0)
                    reaped = True
                    raise ChildDied(f"the forked child sent back no result for task {index} "
                                    f"and exited with status "
                                    f"{os.waitstatus_to_exitcode(status)}") from None
                if not ok:
                    exc, child_traceback = value
                    if hasattr(exc, "add_note"):  # Python >= 3.11
                        exc.add_note(f"raised by task {sent} in the forked child:\n"
                                     f"{child_traceback}")
                    raise exc
                results[index] = value
            if failure is not None:
                raise failure
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)  # nothing it has not sent is needed
                os.waitpid(pid, 0)
    return results


def _serve_odd_items(fn, items: list, write_fd: int):
    """The child's share: pickle `(index, True, fn(item))` for each
    odd-indexed item, or `(index, False, (exception, traceback text))` for
    the first that raises, then leave with `os._exit`."""
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for index in range(1, len(items), 2):
                try:
                    message = pickle.dumps((index, True, fn(items[index])),
                                           pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    pickle.dump((index, False, (_portable(exc), traceback.format_exc())), pipe,
                                pickle.HIGHEST_PROTOCOL)
                    break
                pipe.write(message)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _portable(exc: Exception) -> Exception:
    """`exc` if it survives a pickle round trip, else a RuntimeError that
    names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(exc).__qualname__}: {exc}")
    return exc

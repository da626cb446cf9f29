"""One round of cache commands, run as the caller's own task.

:func:`run_round` steps each command's coroutine to its first suspension —
the whole round's writes go out in one loop tick, coalesced per connection
— then resumes them in round order as what they await completes, handing
whatever a coroutine yields (a future, or the bare ``yield`` of
``asyncio.sleep(0)``) to the caller's task unchanged.  A healthy command
suspends once, on its reply; one that suspends again is recovering
(backoff, redial) and finishes on a task of its own, so two servers'
recoveries overlap.  If anything raises, commands not yet started never
start and started ones are cancelled and waited for.  Two limits: inside a
command ``current_task()`` is the caller, and no two commands may await
the same future object.  :func:`run_reads` runs database reads, which may
hold an ``asyncio.timeout()`` (it cancels its task), on the caller's task
until one waits: that read keeps it, each later read gets a task.
"""

import asyncio
import types
from contextlib import suppress


@types.coroutine
def _resume(coro, awaited):
    """Wait for what *coro* awaits as the calling task, then step it:
    ``(True, result)`` or ``(False, what it awaits next)``."""
    error = None
    if awaited is None or not awaited.done():
        try:
            yield awaited
        except BaseException as thrown:  # the wait's failure, or a cancel
            error = thrown
    try:
        return False, coro.send(None) if error is None else coro.throw(error)
    except StopIteration as stop:
        return True, stop.value


async def _finish(coro, awaited):
    """What ``await coro`` would do from *coro*'s current suspension."""
    done = False
    while not done:
        done, awaited = await _resume(coro, awaited)
    return awaited


@types.coroutine
def _unwind(unstarted, tasks):
    """Close what never started, cancel the tasks and wait for them."""
    for _, coro in unstarted:
        coro.close()
    for _, task in tasks:
        task.cancel()
    for _, task in tasks:
        with suppress(Exception, asyncio.CancelledError):
            yield from task


@types.coroutine
def run_round(coros):
    """Answers of *coros* (one coroutine per command), aligned by index."""
    answers = [None] * len(coros)
    unstarted = iter(enumerate(coros))
    parked = []  # (index, coroutine, what it awaits), in round order
    tasks = []  # (index, task): commands that suspended a second time
    try:
        for index, coro in unstarted:
            try:
                parked.append((index, coro, coro.send(None)))
            except StopIteration as stop:  # answered without waiting
                answers[index] = stop.value
        parked = iter(parked)
        for index, coro, awaited in parked:
            done, value = yield from _resume(coro, awaited)
            if not done:  # recovering: it finishes on a task of its own
                value = asyncio.ensure_future(_finish(coro, value))
                tasks.append((index, value))
            answers[index] = value
        for index, task in tasks:
            answers[index] = yield from task
        return answers
    except BaseException:
        for _, coro, awaited in parked:  # what Task.cancel() would do
            if awaited is not None:
                awaited.cancel()
            with suppress(Exception, asyncio.CancelledError):
                coro.throw(asyncio.CancelledError())
                coro.close()  # it awaited again while unwinding
        yield from _unwind(unstarted, tasks)
        raise


@types.coroutine
def run_reads(coros):
    """Answers of *coros* (one coroutine per database read), aligned by
    index; on a raise, as :func:`run_round`."""
    answers = [None] * len(coros)
    unstarted = iter(enumerate(coros))
    tasks = []  # (index, task): the reads after the first that waited
    try:
        for index, coro in unstarted:
            try:
                awaited = coro.send(None)
            except StopIteration as stop:  # answered without waiting
                answers[index] = stop.value
                continue
            # It keeps the caller's task; each later read starts on its own.
            tasks = [(i, asyncio.ensure_future(read)) for i, read in unstarted]
            answers[index] = yield from _finish(coro, awaited)
        for index, task in tasks:
            answers[index] = yield from task
        return answers
    except BaseException:
        yield from _unwind(unstarted, tasks)
        raise

"""Command lines the client does not wrap, sent over its pipelined stream.

The server's tests send the lines no client method builds (an ``add``
that awaits its reply, a verb the server does not speak, a bogus line)
through :func:`command`.
"""

from repro.net.parser import LineReply


async def command(client, line: bytes, shape=None):
    """Send *line* (one command, with its data block if it has one) on
    *client*'s stream and return its reply as *shape* frames it — by
    default one line without its CRLF.  A complete error line raises
    :class:`~repro.errors.ProtocolError` and leaves the stream framed."""
    return await client._exchange(shape or LineReply(), line)

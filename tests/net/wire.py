"""Command lines the client does not wrap, sent over its pipelined stream.

The server speaks the whole memcached text protocol; the client wraps only
what the web tier sends.  The server's tests reach every other verb
(``prepend``, ``decr``, ``touch``, ``replace``, ``cas``, ``version``,
``stats slabs``, a bogus line) through :func:`command`.
"""

from repro.net.parser import LineReply


async def command(client, line: bytes, shape=None):
    """Send *line* (one command, with its data block if it has one) on
    *client*'s stream and return its reply as *shape* frames it — by
    default one line without its CRLF.  A complete error line raises
    :class:`~repro.errors.ProtocolError` and leaves the stream framed."""
    return await client._exchange(shape or LineReply(), line)

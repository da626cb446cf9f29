"""The benchmark's null server: echoes every byte straight back.

Run as a child process; prints ``LISTENING <port>`` like
``repro.net.server`` does.  The work-unit probe bounces a message off it
before every timed unit, so the unit runs the way the program's own code
runs: just back from the kernel and another process, caches no warmer
than theirs.
"""

import asyncio
import socket


class Echo(asyncio.Protocol):
    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def data_received(self, data: bytes) -> None:
        self.transport.write(data)


async def serve() -> None:
    server = await asyncio.get_running_loop().create_server(
        Echo, "127.0.0.1", 0
    )
    print(f"LISTENING {server.sockets[0].getsockname()[1]}", flush=True)
    await asyncio.Event().wait()


if __name__ == "__main__":
    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass

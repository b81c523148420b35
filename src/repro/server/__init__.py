"""The threaded query front door: socket server, protocol, client.

See ``docs/SERVING.md`` for the protocol, the admission-control story,
and operational notes; ``repro serve`` is the CLI entry point.
"""

from .app import QueryServer, ServerThread
from .client import ServeClient
from .protocol import MAX_LINE, OPS, decode_message, encode_message

__all__ = [
    "QueryServer",
    "ServerThread",
    "ServeClient",
    "MAX_LINE",
    "OPS",
    "decode_message",
    "encode_message",
]

"""Resolver-side components: recursive resolvers, forwarders, anycast."""

from . import behaviors
from .anycast import AnycastFrontEnd, PublicDnsService
from .base import DnsServer
from .forwarder import Forwarder
from .recursive import RecursiveResolver

__all__ = [
    "AnycastFrontEnd", "DnsServer", "Forwarder", "PublicDnsService",
    "RecursiveResolver", "behaviors",
]

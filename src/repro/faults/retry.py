"""The shared retry/backoff/failover ladder (RFC 7871 §7.1 degradation).

One implementation of client-side resilience for every query-issuing
site in the reproduction: the dig-like stub client, the scan driver, the
recursive resolver's upstream probes, and forwarder failover.  The paper
rides on resolvers that time out, fail over between nameservers, retry
truncated answers over TCP (RFC 1035 §4.2.1), fall back to plain DNS for
pre-EDNS0 servers (RFC 6891 §7), and — the ECS-specific rung — retry
*without* the ECS option when a server answers FORMERR (RFC 7871 §7.1).
All of that lives here, once, behind a :class:`RetryPolicy`.

Determinism: backoff jitter is a pure function of (site, server,
attempt) via SHA-256, never an ambient RNG, so retry timing replays
bit-identically at any worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..dnslib import EcsOption, Message, Rcode
from ..net.transport import Network
from ..obs import metrics as _obs_metrics

#: A fresh query for one attempt: ``(edns_ok, ecs_ok) -> Message``.  The
#: executor flips the flags as it walks the downgrade ladder; the callee
#: mints a new message id each call so retried queries are distinct.
QueryFactory = Callable[[bool, bool], Message]

#: Each backoff wait is this many times the one before it.
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client behaves when the network (or a server) misbehaves.

    ``max_attempts`` budgets timed-out attempts per server (including
    the first).  Protocol downgrades — TCP after truncation, no-ECS and
    no-EDNS after FORMERR — are *extra* rungs outside that budget: they
    respond to explicit server feedback, not silence, and each fires at
    most once per server.  Exhausting a server always fails over to the
    next one.
    """

    max_attempts: int = 1
    backoff_base_ms: float = 0.0
    jitter_fraction: float = 0.0
    tcp_on_truncation: bool = True
    retry_without_ecs_on_formerr: bool = False
    retry_without_edns_on_formerr: bool = False

    def max_queries(self, servers: int) -> int:
        """Worst-case wire queries a single execution can issue.

        Per server: ``max_attempts`` budgeted rounds plus one round per
        enabled FORMERR downgrade, each round at most doubled by a TCP
        truncation retry.  The property tests bound chaos runs with this.
        """
        rounds = self.max_attempts \
            + (1 if self.retry_without_ecs_on_formerr else 0) \
            + (1 if self.retry_without_edns_on_formerr else 0)
        per_round = 2 if self.tcp_on_truncation else 1
        return max(1, servers) * rounds * per_round


@dataclass(slots=True)
class RetryOutcome:
    """What one policy-driven execution produced."""

    response: Optional[Message]
    elapsed_ms: float
    attempts: int = 0
    retries: int = 0
    server_ip: Optional[str] = None
    #: ECS option on the final query actually sent (``None`` after a
    #: no-ECS downgrade) — what a cache must key the stored answer on.
    query_ecs: Optional[EcsOption] = None
    #: The answering server needed the no-ECS rung.
    ecs_downgraded: bool = False
    #: The last server tried needed the no-EDNS rung (answered or not): a
    #: pre-EDNS0 server the caller may remember.
    edns_downgraded: bool = False
    timed_out: bool = False


def backoff_jitter(site: str, server_ip: str, attempt: int) -> float:
    """Deterministic stand-in for ``uniform(-1, 1)`` jitter.

    Hashing (site, server, attempt) decorrelates concurrent clients'
    retry timing — the point of jitter — without consuming any RNG
    stream, so replay determinism is untouched.
    """
    digest = hashlib.sha256(
        f"repro.faults.backoff:{site}:{server_ip}:{attempt}"
        .encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(2 ** 64) * 2.0 - 1.0


def backoff_delay_ms(policy: RetryPolicy, site: str, server_ip: str,
                     retry_index: int, attempt: int) -> float:
    """Exponential backoff with deterministic jitter, in milliseconds."""
    delay = policy.backoff_base_ms * (BACKOFF_FACTOR ** retry_index)
    if policy.jitter_fraction:
        delay *= 1.0 + policy.jitter_fraction * backoff_jitter(
            site, server_ip, attempt)
    return max(delay, 0.0)


def _note_retry(site: str, reason: str) -> None:
    reg = _obs_metrics.ACTIVE
    if reg is not None:
        reg.counter("repro_retries_total",
                    "Query retries by site and trigger.",
                    ("site", "reason")).inc(1, site, reason)


def _note_ecs_downgrade(site: str) -> None:
    reg = _obs_metrics.ACTIVE
    if reg is not None:
        reg.counter("repro_ecs_downgrades_total",
                    "RFC 7871 section 7.1 no-ECS downgrade retries.",
                    ("site",)).inc(1, site)


def execute_with_retries(net: Network, src_ip: str,
                         servers: Sequence[str],
                         make_query: QueryFactory,
                         policy: RetryPolicy, *,
                         site: str = "client",
                         tcp: bool = False) -> RetryOutcome:
    """Run the full ladder against ``servers`` in order.

    Per server: up to ``max_attempts`` timed-out attempts with backoff
    between them, a TCP retry when an answer comes back truncated, and
    the FORMERR downgrade rungs (drop ECS first, then EDNS entirely).
    Exhausting a server moves to the next (failover); exhausting all of
    them yields a ``timed_out`` outcome.  ``elapsed_ms`` charges every
    wire leg and backoff wait exactly once.

    Every retry is counted in ``repro_retries_total{site, reason}``
    (reasons: ``timeout``, ``truncation``, ``formerr_noecs``,
    ``formerr_noedns``); per-server state a caller keeps, such as a
    resolver's no-EDNS server set, is read off the outcome.
    """
    if not servers:
        raise ValueError("execute_with_retries needs at least one server")
    total_elapsed = 0.0
    attempts = 0
    retries = 0
    edns_downgraded = False
    for server_ip in servers:
        edns_ok = True
        ecs_ok = True
        ecs_downgraded = False
        edns_downgraded = False
        budget = max(1, policy.max_attempts)
        backoffs = 0
        while budget > 0:
            msg = make_query(edns_ok, ecs_ok and edns_ok)
            attempts += 1
            outcome = net.query(src_ip, server_ip, msg, tcp=tcp)
            total_elapsed += outcome.elapsed_ms
            response = outcome.response
            if (response is not None and response.truncated
                    and policy.tcp_on_truncation and not tcp):
                # RFC 1035 section 4.2.1: identical question over TCP.
                retries += 1
                _note_retry(site, "truncation")
                attempts += 1
                tcp_outcome = net.query(src_ip, server_ip, msg, tcp=True)
                total_elapsed += tcp_outcome.elapsed_ms
                response = tcp_outcome.response
            if response is None:
                budget -= 1
                if budget > 0:
                    retries += 1
                    _note_retry(site, "timeout")
                    delay_ms = backoff_delay_ms(policy, site, server_ip,
                                                backoffs, attempts)
                    if delay_ms and net.advance_clock:
                        net.clock.advance(delay_ms / 1000.0)
                    total_elapsed += delay_ms
                    backoffs += 1
                continue
            sent_ecs = msg.ecs()
            if response.rcode == Rcode.FORMERR:
                if (sent_ecs is not None and not ecs_downgraded
                        and policy.retry_without_ecs_on_formerr):
                    # RFC 7871 section 7.1: retry without the option.
                    ecs_downgraded = True
                    ecs_ok = False
                    retries += 1
                    _note_retry(site, "formerr_noecs")
                    _note_ecs_downgrade(site)
                    continue
                if (msg.edns is not None and not edns_downgraded
                        and policy.retry_without_edns_on_formerr):
                    # RFC 6891 section 7: pre-EDNS0 server, go plain.
                    edns_downgraded = True
                    edns_ok = False
                    retries += 1
                    _note_retry(site, "formerr_noedns")
                    continue
            return RetryOutcome(response, total_elapsed, attempts, retries,
                                server_ip, sent_ecs, ecs_downgraded,
                                edns_downgraded, False)
    return RetryOutcome(None, total_elapsed, attempts, retries, None,
                        edns_downgraded=edns_downgraded, timed_out=True)

"""Freshness plane: delta-crawls that repair a ledger against a live endpoint.

Every other layer of the library assumes the hidden database never changes
between crawls.  This package drops that assumption: given a crawl store
whose ledger was billed at an older data version of the endpoint, a
:class:`DeltaCrawl` revalidates only the entries whose answers could be
affected by the observed churn (probing the previous skyline first, then
cascading re-expansion to wherever answers actually changed) and repairs
the skyline for a fraction of the from-scratch billed cost.

A repair is run as ``Discoverer.run(interface, mode="delta")`` (with a
``DiscoveryConfig`` carrying the store) -- also what ``repro crawl --delta``
on the CLI and each cycle of a coordinator ``watch`` job call.
"""

from .delta import DeltaCrawl, DeltaLedger, DeltaReport

__all__ = ["DeltaCrawl", "DeltaLedger", "DeltaReport"]

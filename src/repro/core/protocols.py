"""Protocol visibility: what the transparent proxy actually sees (§3.3).

The proxy logs "the SNI for HTTPS traffic and the full URL for HTTP" — so
every plaintext transaction exposes its URL path to the operator, while
TLS transactions expose only the server name.  This extension analysis
(motivated by the authors' companion work, *Are Wearables Ready for
HTTPS?*) quantifies that exposure for the wearable population:

* the overall HTTPS share of wearable transactions;
* per app and per Play-store category: the fraction of each app's traffic
  still in cleartext;
* the cleartext exposure of *sensitive* categories (Finance,
  Health-Fitness, Communication) where plain HTTP is an actual finding.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Categories where cleartext traffic is security-relevant.
SENSITIVE_CATEGORIES = frozenset({"Finance", "Health-Fitness", "Communication"})


@dataclass(frozen=True, slots=True)
class AppProtocolStats:
    """Protocol split for one app."""

    app: str
    category: str
    transactions: int
    http_fraction: float
    #: Fraction of this app's transactions exposing a URL path.
    url_visible_fraction: float


@dataclass(frozen=True, slots=True)
class ProtocolResult:
    """The protocol-visibility analysis."""

    transactions: int
    https_fraction: float
    http_fraction: float
    #: Per-app splits, most cleartext first.
    per_app: list[AppProtocolStats]
    #: Category → HTTP fraction.
    per_category_http: dict[str, float]
    #: Apps in sensitive categories with any cleartext traffic.
    sensitive_cleartext_apps: list[str]
    #: HTTP fraction over sensitive-category traffic only.
    sensitive_http_fraction: float

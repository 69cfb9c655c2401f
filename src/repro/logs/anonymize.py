"""Trace pseudonymisation for sharing.

The paper's data handling (§3.5) keeps subscriber identities inside the
operator; anything leaving must be pseudonymised.  :class:`Anonymizer`
rewrites a trace with:

* **subscriber ids** replaced by keyed HMAC-SHA256 pseudonyms —
  deterministic under one key (so joins across logs survive), unlinkable
  without it;
* **IMEIs** reduced to their TAC plus a pseudonymous serial, preserving
  exactly the information the analyses use (device model identity) while
  destroying the device serial number;
* **account ids** pseudonymised with the same construction.

Hosts, timestamps, byte counts and sectors are left intact: they carry the
measurements.  Re-anonymising with a fresh key yields unlinkable outputs.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.logs.records import MmeRecord, ProxyRecord

#: Length of the derived pseudonyms (hex characters).
PSEUDONYM_LENGTH = 16

#: Pseudonymous serial keeps the IMEI 15 digits: TAC (8) + 6 digits + '0'.
_SERIAL_DIGITS = 6


class Anonymizer:
    """Keyed, deterministic pseudonymiser for trace records."""

    def __init__(self, key: bytes | None = None) -> None:
        """``key`` defaults to a fresh random 32-byte secret.

        Keep the key if pseudonyms must stay consistent across exports;
        discard it to make the mapping unrecoverable.
        """
        self._key = key if key is not None else secrets.token_bytes(32)

    def _digest(self, domain: str, value: str) -> bytes:
        return hmac.new(
            self._key, f"{domain}:{value}".encode(), hashlib.sha256
        ).digest()

    def pseudonym(self, domain: str, value: str) -> str:
        """A stable hex pseudonym for ``value`` within a domain."""
        return self._digest(domain, value).hex()[:PSEUDONYM_LENGTH]

    def subscriber(self, subscriber_id: str) -> str:
        return "p" + self.pseudonym("subscriber", subscriber_id)

    def account(self, account_id: str) -> str:
        return "a" + self.pseudonym("account", account_id)

    def imei(self, imei: str) -> str:
        """TAC-preserving IMEI pseudonym (keeps the device model visible)."""
        tac = imei[:8]
        serial_digest = int.from_bytes(self._digest("imei", imei)[:8], "big")
        serial = serial_digest % (10**_SERIAL_DIGITS)
        return f"{tac}{serial:0{_SERIAL_DIGITS}d}0"

    # ------------------------------------------------------------ records
    def proxy_record(self, record: ProxyRecord) -> ProxyRecord:
        return ProxyRecord(
            timestamp=record.timestamp,
            subscriber_id=self.subscriber(record.subscriber_id),
            imei=self.imei(record.imei),
            host=record.host,
            path=record.path,
            protocol=record.protocol,
            bytes_up=record.bytes_up,
            bytes_down=record.bytes_down,
        )

    def mme_record(self, record: MmeRecord) -> MmeRecord:
        return MmeRecord(
            timestamp=record.timestamp,
            subscriber_id=self.subscriber(record.subscriber_id),
            imei=self.imei(record.imei),
            sector_id=record.sector_id,
            event=record.event,
        )

    def account_directory(self, directory: dict[str, str]) -> dict[str, str]:
        """Pseudonymise both sides of the billing directory."""
        return {
            self.subscriber(subscriber): self.account(account)
            for subscriber, account in directory.items()
        }

"""Zorua-style virtualized resource quotas for compute partitions.

Each partition's shared-memory and register footprint is admitted
against a *virtual quota* that may exceed its *physical backing* (the
MTB arenas and register files of the SMMs it owns).  The decoupling is
what makes quotas elastic: a busy partition can borrow idle backing
from a sibling and return it at an epoch boundary, without the
physical arenas moving at all.

Terminology per account (one account per partition per resource):

``base``
    physical backing the partition's own SMMs provide;
``quota``
    the virtual limit tenants were promised (``quota > base`` is
    oversubscription);
``borrowed`` / ``lent``
    backing currently moved in from / out to siblings;
``backing``
    ``base + borrowed - lent`` — what physically stands behind the
    account right now;
``grant``
    ``min(quota, backing)`` — what admission may actually hand out;
``used``
    footprint of admitted, still-running tasks.

Invariants (the hypothesis property test pins these):

- an acquire never lifts ``used`` above ``grant`` — so no partition
  ever holds more than its physical backing, however oversubscribed
  its quota is;
- lending moves backing, never creates it: for every resource the
  backings sum to the bases' sum (the physical budget) at all times;
- a lender is never pushed below its own usage: ``backing - used >= 0``
  is a precondition of lending that amount away.

A shrink (SMM handed to a sibling) may transiently leave
``used > grant``; the account is then simply closed for new admissions
until usage drains — the physical sum invariant still holds because
the backing moved with the SMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: the two virtualized resources, in canonical order.
RESOURCES = ("smem", "regs")


@dataclass
class QuotaAccount:
    """One partition's ledger row for one resource."""

    base: int
    quota: int
    borrowed: int = 0
    lent: int = 0
    used: int = 0
    #: lender name -> amount currently borrowed from it (so a return
    #: credits the right sibling's ``lent``).
    borrowed_from: Dict[str, int] = field(default_factory=dict)

    @property
    def backing(self) -> int:
        """Physical bytes/registers standing behind this account now."""
        return self.base + self.borrowed - self.lent

    @property
    def grant(self) -> int:
        """What admission may hand out: quota capped by backing."""
        return min(self.quota, self.backing)

    @property
    def headroom(self) -> int:
        """Admittable footprint left before the grant is exhausted."""
        return self.grant - self.used

    @property
    def idle_backing(self) -> int:
        """Backing not covering current usage — what could be lent."""
        return max(0, self.backing - self.used)


class QuotaLedger:
    """All partitions' quota accounts plus the borrow/return machinery.

    Deterministic by construction: iteration is always over sorted
    partition names, and every mutation is driven by engine events
    (claims, completions, epoch ticks) — never wall-clock state.
    """

    #: fraction of a lender's *base* that borrowing may never drain:
    #: a lightly-loaded partition keeps enough backing that its own
    #: next request admits immediately instead of waiting for a
    #: heavily-loaded sibling to give borrowed quota back (the sibling
    #: only settles once its own usage falls — potentially never
    #: during a long burst).
    RESERVE_FRAC = 0.125

    def __init__(self, obs=None) -> None:
        #: partition -> resource -> account.
        self.accounts: Dict[str, Dict[str, QuotaAccount]] = {}
        self.obs = obs
        self.borrow_count = 0
        self.return_count = 0
        self._grant_tl: Dict[Tuple[str, str], object] = {}

    # -- registration ------------------------------------------------------

    def register(self, partition: str, *, smem_base: int, regs_base: int,
                 smem_quota: int, regs_quota: int) -> None:
        """Open the accounts of one partition: its physical bases and
        its (possibly oversubscribed) quotas."""
        if partition in self.accounts:
            raise ValueError(f"partition {partition!r} already registered")
        self.accounts[partition] = {
            "smem": QuotaAccount(base=smem_base, quota=smem_quota),
            "regs": QuotaAccount(base=regs_base, quota=regs_quota),
        }
        if self.obs is not None:
            for res in RESOURCES:
                self._grant_tl[(partition, res)] = self.obs.timeline(
                    f"gpu.partition.{partition}.{res}_grant"
                )

    def account(self, partition: str, resource: str) -> QuotaAccount:
        return self.accounts[partition][resource]

    # -- admission ---------------------------------------------------------

    def try_acquire(self, partition: str, smem: int, regs: int) -> bool:
        """Admit a footprint against the grants — both resources or
        neither (no partial holds to deadlock on)."""
        accts = self.accounts[partition]
        if (accts["smem"].used + smem <= accts["smem"].grant
                and accts["regs"].used + regs <= accts["regs"].grant):
            accts["smem"].used += smem
            accts["regs"].used += regs
            return True
        return False

    def release(self, partition: str, smem: int, regs: int) -> None:
        accts = self.accounts[partition]
        accts["smem"].used -= smem
        accts["regs"].used -= regs
        if accts["smem"].used < 0 or accts["regs"].used < 0:
            raise RuntimeError(
                f"partition {partition!r} released more than it held"
            )

    # -- borrow / return (the elastic epoch machinery) ---------------------

    def borrow(self, borrower: str, resource: str, amount: int,
               now_ns: float = 0.0) -> int:
        """Move up to ``amount`` of idle sibling backing to ``borrower``.

        Siblings are drained in sorted-name order (deterministic), each
        only down to its own usage or its :attr:`RESERVE_FRAC` floor,
        whichever is higher.  Returns what was actually moved.
        Borrowing past the borrower's quota is pointless (the grant is
        quota-capped), so the transfer is clipped there too.
        """
        b = self.accounts[borrower][resource]
        amount = min(amount, b.quota - b.backing)
        if amount <= 0:
            return 0
        moved = 0
        for name in sorted(self.accounts):
            if name == borrower:
                continue
            lender = self.accounts[name][resource]
            floor = max(lender.used, int(lender.base * self.RESERVE_FRAC))
            take = min(max(0, lender.backing - floor), amount - moved)
            if take <= 0:
                continue
            lender.lent += take
            b.borrowed += take
            b.borrowed_from[name] = b.borrowed_from.get(name, 0) + take
            moved += take
            self._note_grant(name, resource, now_ns)
            if moved >= amount:
                break
        if moved:
            self.borrow_count += 1
            self._note_grant(borrower, resource, now_ns)
            if self.obs is not None:
                self.obs.counter(
                    f"gpu.partition.{borrower}.quota_borrows").inc()
        return moved

    def settle(self, partition: str, resource: str,
               now_ns: float = 0.0) -> int:
        """Return as much borrowed backing as usage allows (the epoch-
        boundary give-back).  Returns the amount handed back."""
        acct = self.accounts[partition][resource]
        returnable = min(acct.borrowed, acct.idle_backing)
        if returnable <= 0:
            return 0
        left = returnable
        for name in sorted(acct.borrowed_from):
            give = min(acct.borrowed_from[name], left)
            if give <= 0:
                continue
            self.accounts[name][resource].lent -= give
            acct.borrowed -= give
            acct.borrowed_from[name] -= give
            if acct.borrowed_from[name] == 0:
                del acct.borrowed_from[name]
            left -= give
            self._note_grant(name, resource, now_ns)
            if left <= 0:
                break
        self.return_count += 1
        self._note_grant(partition, resource, now_ns)
        if self.obs is not None:
            self.obs.counter(
                f"gpu.partition.{partition}.quota_returns").inc()
        return returnable - left

    # -- repartitioning ----------------------------------------------------

    def transfer_base(self, donor: str, recipient: str, resource: str,
                      amount: int, now_ns: float = 0.0) -> None:
        """An SMM changed hands: its physical backing follows it.

        Any outstanding borrow the recipient holds against the donor is
        cancelled first — borrowed headroom becomes owned base when the
        underlying SMM itself moves.  Without this the donor's base
        shrinks while its ``lent`` stays outstanding, driving its
        backing (and grant) to zero or below until the recipient
        settles — which a busy recipient never does mid-burst.
        """
        d = self.accounts[donor][resource]
        r = self.accounts[recipient][resource]
        d.base -= amount
        r.base += amount
        cancel = min(r.borrowed_from.get(donor, 0), amount)
        if cancel > 0:
            r.borrowed -= cancel
            r.borrowed_from[donor] -= cancel
            d.lent -= cancel
        if d.base < 0:
            raise RuntimeError(
                f"partition {donor!r} gave away more {resource} backing "
                "than it had"
            )
        self._note_grant(donor, resource, now_ns)
        self._note_grant(recipient, resource, now_ns)

    # -- invariants --------------------------------------------------------

    def physical_total(self, resource: str) -> int:
        """Sum of bases — the device's physical budget for a resource."""
        return sum(a[resource].base for a in self.accounts.values())

    def check_physical(self) -> None:
        """Assert the ledger's conservation + bounds invariants."""
        for res in RESOURCES:
            backings = 0
            for name in sorted(self.accounts):
                acct = self.accounts[name][res]
                if acct.borrowed < 0 or acct.lent < 0 or acct.used < 0:
                    raise AssertionError(
                        f"{name}/{res}: negative ledger field ({acct})"
                    )
                if acct.grant > acct.quota:
                    raise AssertionError(
                        f"{name}/{res}: grant {acct.grant} exceeds "
                        f"quota {acct.quota}"
                    )
                if acct.grant > acct.backing:
                    raise AssertionError(
                        f"{name}/{res}: grant {acct.grant} exceeds "
                        f"physical backing {acct.backing}"
                    )
                backings += acct.backing
            total = self.physical_total(res)
            if backings != total:
                raise AssertionError(
                    f"{res}: backings sum to {backings}, physical "
                    f"budget is {total} (lend/return imbalance)"
                )

    # -- obs ---------------------------------------------------------------

    def _note_grant(self, partition: str, resource: str,
                    now_ns: float) -> None:
        tl = self._grant_tl.get((partition, resource))
        if tl is not None:
            tl.set(now_ns, self.accounts[partition][resource].grant)

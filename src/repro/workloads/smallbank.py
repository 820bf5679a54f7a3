"""SmallBank: short, homogeneous banking transactions.

SmallBank (from the OLTP-Bench suite the paper uses) models a bank with one
checking and one savings account per customer and six transaction types,
each touching between three and six rows — which is why the paper can pick a
much shorter epoch for it than for TPC-C.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.core.client import AbortRequest, Read, ReadMany, Write
from repro.workloads.records import encode_record, make_key, record_field, update_record


@dataclass(frozen=True)
class SmallBankConfig:
    """Scale and mix parameters.  The paper uses one million accounts."""

    num_accounts: int = 1000
    hotspot_fraction: float = 0.1       # fraction of accounts that are "hot"
    hotspot_probability: float = 0.25   # probability a transaction targets a hot account
    initial_checking: float = 100.0
    initial_savings: float = 500.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_accounts < 2:
            raise ValueError("SmallBank needs at least two accounts")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")


#: Standard SmallBank mix (uniform over the six transaction types).
STANDARD_MIX = {
    "balance": 15,
    "deposit_checking": 15,
    "transact_savings": 15,
    "amalgamate": 15,
    "write_check": 15,
    "send_payment": 25,
}


class SmallBankWorkload:
    """Initial population and the six SmallBank transaction programs."""

    def __init__(self, config: Optional[SmallBankConfig] = None) -> None:
        self.config = config if config is not None else SmallBankConfig()
        self.rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    # Keys and population
    # ------------------------------------------------------------------ #
    @staticmethod
    def checking_key(account: int) -> str:
        return make_key("checking", account)

    @staticmethod
    def savings_key(account: int) -> str:
        return make_key("savings", account)

    def initial_data(self) -> Dict[str, bytes]:
        cfg = self.config
        data: Dict[str, bytes] = {}
        for account in range(cfg.num_accounts):
            data[self.checking_key(account)] = encode_record(
                {"account": account, "balance": cfg.initial_checking})
            data[self.savings_key(account)] = encode_record(
                {"account": account, "balance": cfg.initial_savings})
        return data

    def _random_account(self) -> int:
        cfg = self.config
        hot_accounts = max(1, int(cfg.num_accounts * cfg.hotspot_fraction))
        if self.rng.random() < cfg.hotspot_probability:
            return self.rng.randrange(hot_accounts)
        return self.rng.randrange(cfg.num_accounts)

    def _two_accounts(self):
        a = self._random_account()
        b = self._random_account()
        while b == a:
            b = self._random_account()
        return a, b

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def balance_program(self, account: Optional[int] = None) -> Callable[[], Iterator]:
        """Read-only: total balance of one customer."""
        acct = account if account is not None else self._random_account()

        def program():
            rows = yield ReadMany([self.checking_key(acct), self.savings_key(acct)])
            total = ((record_field(rows[self.checking_key(acct)], "balance", 0.0) or 0.0)
                     + (record_field(rows[self.savings_key(acct)], "balance", 0.0) or 0.0))
            return {"account": acct, "balance": round(total, 2)}

        return program

    def deposit_checking_program(self, account: Optional[int] = None,
                                 amount: Optional[float] = None) -> Callable[[], Iterator]:
        acct = account if account is not None else self._random_account()
        value = amount if amount is not None else round(self.rng.uniform(1.0, 100.0), 2)

        def program():
            checking = yield Read(self.checking_key(acct))
            balance = (record_field(checking, "balance", 0.0) or 0.0) + value
            yield Write(self.checking_key(acct),
                        update_record(checking, balance=round(balance, 2)))
            return {"account": acct, "balance": round(balance, 2)}

        return program

    def transact_savings_program(self, account: Optional[int] = None,
                                 amount: Optional[float] = None) -> Callable[[], Iterator]:
        """Add (or withdraw) from savings; aborts if it would go negative."""
        acct = account if account is not None else self._random_account()
        value = amount if amount is not None else round(self.rng.uniform(-50.0, 100.0), 2)

        def program():
            savings = yield Read(self.savings_key(acct))
            balance = (record_field(savings, "balance", 0.0) or 0.0) + value
            if balance < 0:
                yield AbortRequest("insufficient savings")
                return {"account": acct, "aborted": True}
            yield Write(self.savings_key(acct),
                        update_record(savings, balance=round(balance, 2)))
            return {"account": acct, "balance": round(balance, 2)}

        return program

    def amalgamate_program(self) -> Callable[[], Iterator]:
        """Move everything from one customer's accounts to another's checking."""
        src, dst = self._two_accounts()

        def program():
            rows = yield ReadMany([self.savings_key(src), self.checking_key(src),
                                   self.checking_key(dst)])
            src_savings = rows[self.savings_key(src)]
            src_checking = rows[self.checking_key(src)]
            dst_checking = rows[self.checking_key(dst)]
            moved = ((record_field(src_savings, "balance", 0.0) or 0.0)
                     + (record_field(src_checking, "balance", 0.0) or 0.0))
            yield Write(self.savings_key(src), update_record(src_savings, balance=0.0))
            yield Write(self.checking_key(src), update_record(src_checking, balance=0.0))
            new_balance = (record_field(dst_checking, "balance", 0.0) or 0.0) + moved
            yield Write(self.checking_key(dst),
                        update_record(dst_checking, balance=round(new_balance, 2)))
            return {"from": src, "to": dst, "moved": round(moved, 2)}

        return program

    def write_check_program(self, account: Optional[int] = None,
                            amount: Optional[float] = None) -> Callable[[], Iterator]:
        """Write a check against total funds, applying an overdraft penalty."""
        acct = account if account is not None else self._random_account()
        value = amount if amount is not None else round(self.rng.uniform(1.0, 200.0), 2)

        def program():
            rows = yield ReadMany([self.savings_key(acct), self.checking_key(acct)])
            savings = rows[self.savings_key(acct)]
            checking = rows[self.checking_key(acct)]
            total = ((record_field(savings, "balance", 0.0) or 0.0)
                     + (record_field(checking, "balance", 0.0) or 0.0))
            penalty = 1.0 if total < value else 0.0
            new_checking = (record_field(checking, "balance", 0.0) or 0.0) - value - penalty
            yield Write(self.checking_key(acct),
                        update_record(checking, balance=round(new_checking, 2)))
            return {"account": acct, "penalty": penalty}

        return program

    def send_payment_program(self) -> Callable[[], Iterator]:
        """Transfer between two checking accounts; aborts on insufficient funds."""
        src, dst = self._two_accounts()
        value = round(self.rng.uniform(1.0, 50.0), 2)

        def program():
            rows = yield ReadMany([self.checking_key(src), self.checking_key(dst)])
            src_checking = rows[self.checking_key(src)]
            src_balance = record_field(src_checking, "balance", 0.0) or 0.0
            if src_balance < value:
                yield AbortRequest("insufficient funds")
                return {"from": src, "aborted": True}
            dst_checking = rows[self.checking_key(dst)]
            dst_balance = record_field(dst_checking, "balance", 0.0) or 0.0
            yield Write(self.checking_key(src),
                        update_record(src_checking, balance=round(src_balance - value, 2)))
            yield Write(self.checking_key(dst),
                        update_record(dst_checking, balance=round(dst_balance + value, 2)))
            return {"from": src, "to": dst, "amount": value}

        return program

    # ------------------------------------------------------------------ #
    # Mix
    # ------------------------------------------------------------------ #
    def transaction_factory(self, mix: Optional[Dict[str, int]] = None) -> Callable[[], Iterator]:
        weights = mix if mix is not None else STANDARD_MIX
        names = list(weights)
        chosen = self.rng.choices(names, weights=[weights[n] for n in names], k=1)[0]
        builders = {
            "balance": self.balance_program,
            "deposit_checking": self.deposit_checking_program,
            "transact_savings": self.transact_savings_program,
            "amalgamate": self.amalgamate_program,
            "write_check": self.write_check_program,
            "send_payment": self.send_payment_program,
        }
        return builders[chosen]()

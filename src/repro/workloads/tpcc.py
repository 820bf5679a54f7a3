"""TPC-C over a key-value interface.

The paper runs TPC-C with 10 warehouses and, following prior transactional
key-value stores, adds two explicit secondary-index tables: customers by
last name (used by payment and order-status) and each customer's latest
order (used by order-status).  This module reproduces that port: every table
row is a key-value record, the five standard transactions are generator
programs, and the scale factors are configurable so tests can run tiny
instances while benchmarks use the paper's 10 warehouses.

Key schema
----------
==========================  ===========================================
``warehouse:{w}``            warehouse row (ytd)
``district:{w}:{d}``         district row (next_o_id, ytd)
``customer:{w}:{d}:{c}``     customer row (balance, ytd_payment, name)
``cust_name_idx:{w}:{d}:{last}``  list of customer ids with that last name
``cust_last_order:{w}:{d}:{c}``   latest order id for the customer
``item:{i}``                 item row (price, name)
``stock:{w}:{i}``            stock row (quantity, ytd)
``order:{w}:{d}:{o}``        order row (customer, lines, carrier)
``order_line:{w}:{d}:{o}:{n}``  one order line
``new_order:{w}:{d}:{o}``    new-order queue entry
==========================  ===========================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.client import Read, ReadMany, Write
from repro.workloads.records import (bump_counter, decode_record, encode_record, make_key,
                                     record_field, update_record)


#: Last names generated the TPC-C way: concatenating syllables indexed by digits.
_SYLLABLES = ["BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"]


def last_name(number: int) -> str:
    """TPC-C last-name generation from a number in [0, 999]."""
    digits = [(number // 100) % 10, (number // 10) % 10, number % 10]
    return "".join(_SYLLABLES[d] for d in digits)


@dataclass(frozen=True)
class TPCCConfig:
    """Scale factors.  The paper uses 10 warehouses at full TPC-C scale."""

    warehouses: int = 10
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 1000
    initial_orders_per_district: int = 5
    max_items_per_order: int = 5
    payment_by_name_probability: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.warehouses < 1 or self.districts_per_warehouse < 1:
            raise ValueError("need at least one warehouse and district")
        if self.customers_per_district < 1 or self.items < 1:
            raise ValueError("need at least one customer and item")


#: Standard TPC-C transaction mix (weights sum to 100).
STANDARD_MIX = {
    "new_order": 45,
    "payment": 43,
    "order_status": 4,
    "delivery": 4,
    "stock_level": 4,
}


class TPCCWorkload:
    """Initial population and transaction programs for TPC-C."""

    def __init__(self, config: Optional[TPCCConfig] = None) -> None:
        self.config = config if config is not None else TPCCConfig()
        self.rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    # Initial population
    # ------------------------------------------------------------------ #
    def initial_data(self) -> Dict[str, bytes]:
        cfg = self.config
        data: Dict[str, bytes] = {}
        for i in range(cfg.items):
            data[make_key("item", i)] = encode_record(
                {"id": i, "price": round(1 + (i % 100) * 0.5, 2), "name": f"item-{i}"})

        for w in range(cfg.warehouses):
            data[make_key("warehouse", w)] = encode_record({"id": w, "ytd": 0})
            for i in range(cfg.items):
                data[make_key("stock", w, i)] = encode_record(
                    {"item": i, "qty": 50 + (i % 50), "ytd": 0})
            for d in range(cfg.districts_per_warehouse):
                data[make_key("district", w, d)] = encode_record(
                    {"id": d, "next_o_id": cfg.initial_orders_per_district, "ytd": 0})
                name_index: Dict[str, List[int]] = {}
                for c in range(cfg.customers_per_district):
                    lname = last_name(c % 100)
                    data[make_key("customer", w, d, c)] = encode_record(
                        {"id": c, "last": lname, "balance": -10.0, "ytd_payment": 10.0,
                         "payments": 1, "deliveries": 0})
                    name_index.setdefault(lname, []).append(c)
                    data[make_key("cust_last_order", w, d, c)] = encode_record({"order": -1})
                for lname, ids in name_index.items():
                    data[make_key("cust_name_idx", w, d, lname)] = encode_record({"ids": ids})
                for o in range(cfg.initial_orders_per_district):
                    customer = o % cfg.customers_per_district
                    data[make_key("order", w, d, o)] = encode_record(
                        {"id": o, "customer": customer, "lines": 1, "carrier": -1})
                    data[make_key("order_line", w, d, o, 0)] = encode_record(
                        {"item": o % cfg.items, "qty": 1, "amount": 1.0})
                    data[make_key("new_order", w, d, o)] = encode_record({"order": o})
                    data[make_key("cust_last_order", w, d, customer)] = encode_record(
                        {"order": o})
                data[make_key("district_oldest_new_order", w, d)] = encode_record({"oldest": 0})
        return data

    # ------------------------------------------------------------------ #
    # Random input helpers
    # ------------------------------------------------------------------ #
    def _random_warehouse(self) -> int:
        return self.rng.randrange(self.config.warehouses)

    def _random_district(self) -> int:
        return self.rng.randrange(self.config.districts_per_warehouse)

    def _random_customer(self) -> int:
        return self.rng.randrange(self.config.customers_per_district)

    def _random_item(self) -> int:
        return self.rng.randrange(self.config.items)

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def new_order_program(self, warehouse: Optional[int] = None,
                          district: Optional[int] = None) -> Callable[[], Iterator]:
        """The new-order transaction: the write-heavy heart of TPC-C."""
        cfg = self.config
        w = warehouse if warehouse is not None else self._random_warehouse()
        d = district if district is not None else self._random_district()
        c = self._random_customer()
        n_items = self.rng.randint(1, cfg.max_items_per_order)
        items = [self._random_item() for _ in range(n_items)]
        quantities = [self.rng.randint(1, 10) for _ in range(n_items)]

        def program():
            # Round 1: the independent header rows.
            header = yield ReadMany([make_key("warehouse", w), make_key("district", w, d),
                                     make_key("customer", w, d, c)])
            district_row = header[make_key("district", w, d)]
            next_o_id = record_field(district_row, "next_o_id", 0)
            yield Write(make_key("district", w, d),
                        update_record(district_row, next_o_id=next_o_id + 1))

            # Round 2: item and stock rows for every order line (independent).
            item_keys = [make_key("item", item) for item in items]
            stock_keys = [make_key("stock", w, item) for item in items]
            rows = yield ReadMany(item_keys + stock_keys)

            total = 0.0
            for line, (item, qty) in enumerate(zip(items, quantities)):
                price = record_field(rows[make_key("item", item)], "price", 1.0)
                stock_row = rows[make_key("stock", w, item)]
                stock_qty = record_field(stock_row, "qty", 0)
                new_qty = stock_qty - qty if stock_qty - qty >= 10 else stock_qty - qty + 91
                yield Write(make_key("stock", w, item),
                            update_record(stock_row, qty=new_qty))
                amount = round(price * qty, 2)
                total += amount
                yield Write(make_key("order_line", w, d, next_o_id, line),
                            encode_record({"item": item, "qty": qty, "amount": amount}))

            yield Write(make_key("order", w, d, next_o_id),
                        encode_record({"id": next_o_id, "customer": c, "lines": n_items,
                                       "carrier": -1}))
            yield Write(make_key("new_order", w, d, next_o_id),
                        encode_record({"order": next_o_id}))
            yield Write(make_key("cust_last_order", w, d, c),
                        encode_record({"order": next_o_id}))
            return {"order": next_o_id, "total": round(total, 2)}

        return program

    def payment_program(self, warehouse: Optional[int] = None,
                        district: Optional[int] = None) -> Callable[[], Iterator]:
        """The payment transaction: updates warehouse/district/customer YTD."""
        cfg = self.config
        w = warehouse if warehouse is not None else self._random_warehouse()
        d = district if district is not None else self._random_district()
        amount = round(self.rng.uniform(1.0, 5000.0), 2)
        by_name = self.rng.random() < cfg.payment_by_name_probability
        customer = self._random_customer()
        lname = last_name(customer % 100)

        def program():
            # Round 1: warehouse + district (+ the last-name index when used).
            keys = [make_key("warehouse", w), make_key("district", w, d)]
            if by_name:
                keys.append(make_key("cust_name_idx", w, d, lname))
            header = yield ReadMany(keys)
            yield Write(make_key("warehouse", w),
                        bump_counter(header[make_key("warehouse", w)], "ytd", amount))
            yield Write(make_key("district", w, d),
                        bump_counter(header[make_key("district", w, d)], "ytd", amount))

            if by_name:
                ids = record_field(header[make_key("cust_name_idx", w, d, lname)],
                                   "ids", [customer]) or [customer]
                target = sorted(ids)[len(ids) // 2]
            else:
                target = customer
            customer_row = yield Read(make_key("customer", w, d, target))
            record = decode_record(customer_row) or {"balance": 0.0, "ytd_payment": 0.0,
                                                     "payments": 0}
            record["balance"] = round(record.get("balance", 0.0) - amount, 2)
            record["ytd_payment"] = round(record.get("ytd_payment", 0.0) + amount, 2)
            record["payments"] = record.get("payments", 0) + 1
            yield Write(make_key("customer", w, d, target), encode_record(record))
            return {"customer": target, "amount": amount}

        return program

    def order_status_program(self) -> Callable[[], Iterator]:
        """Read-only: a customer's latest order and its lines."""
        w = self._random_warehouse()
        d = self._random_district()
        customer = self._random_customer()
        by_name = self.rng.random() < 0.6
        lname = last_name(customer % 100)

        def program():
            if by_name:
                index_row = yield Read(make_key("cust_name_idx", w, d, lname))
                ids = record_field(index_row, "ids", [customer]) or [customer]
                target = sorted(ids)[len(ids) // 2]
            else:
                target = customer
            rows = yield ReadMany([make_key("customer", w, d, target),
                                   make_key("cust_last_order", w, d, target)])
            order_id = record_field(rows[make_key("cust_last_order", w, d, target)], "order", -1)
            if order_id is None or order_id < 0:
                return {"customer": target, "order": None}
            order_row = yield Read(make_key("order", w, d, order_id))
            lines = record_field(order_row, "lines", 0) or 0
            amounts = []
            if lines > 0:
                line_keys = [make_key("order_line", w, d, order_id, line)
                             for line in range(min(lines, 5))]
                line_rows = yield ReadMany(line_keys)
                amounts = [record_field(line_rows[k], "amount", 0.0) for k in line_keys]
            return {"customer": target, "order": order_id, "amounts": amounts}

        return program

    def delivery_program(self) -> Callable[[], Iterator]:
        """Deliver the oldest new order of a few districts of one warehouse."""
        w = self._random_warehouse()
        districts = list(range(min(3, self.config.districts_per_warehouse)))
        carrier = self.rng.randint(1, 10)

        def program():
            # Round 1: the oldest-new-order pointer of every district.
            pointer_keys = [make_key("district_oldest_new_order", w, d) for d in districts]
            pointers = yield ReadMany(pointer_keys)
            oldest_by_district = {
                d: (record_field(pointers[make_key("district_oldest_new_order", w, d)],
                                 "oldest", 0) or 0)
                for d in districts
            }

            # Round 2: the new-order queue entries and order rows.
            queue_keys = [make_key("new_order", w, d, oldest_by_district[d]) for d in districts]
            order_keys = [make_key("order", w, d, oldest_by_district[d]) for d in districts]
            rows = yield ReadMany(queue_keys + order_keys)

            pending = []
            for d in districts:
                oldest = oldest_by_district[d]
                queue_row = rows[make_key("new_order", w, d, oldest)]
                if queue_row is None or len(queue_row) == 0:
                    continue
                order_row = rows[make_key("order", w, d, oldest)]
                customer = record_field(order_row, "customer", 0) or 0
                pending.append((d, oldest, order_row, customer))

            # Round 3: the customers receiving the deliveries.
            customer_keys = [make_key("customer", w, d, customer)
                             for d, _oldest, _row, customer in pending]
            customer_rows = {}
            if customer_keys:
                customer_rows = yield ReadMany(customer_keys)

            delivered = []
            for d, oldest, order_row, customer in pending:
                yield Write(make_key("order", w, d, oldest),
                            update_record(order_row, carrier=carrier))
                yield Write(make_key("new_order", w, d, oldest), b"")
                yield Write(make_key("district_oldest_new_order", w, d),
                            encode_record({"oldest": oldest + 1}))
                customer_row = customer_rows.get(make_key("customer", w, d, customer))
                yield Write(make_key("customer", w, d, customer),
                            bump_counter(customer_row, "deliveries", 1))
                delivered.append((d, oldest))
            return {"warehouse": w, "delivered": delivered}

        return program

    def stock_level_program(self) -> Callable[[], Iterator]:
        """Count recently-ordered items whose stock is below a threshold."""
        w = self._random_warehouse()
        d = self._random_district()
        threshold = self.rng.randint(10, 20)
        recent_orders = 3

        def program():
            district_row = yield Read(make_key("district", w, d))
            next_o_id = record_field(district_row, "next_o_id", 0) or 0
            order_ids = list(range(max(0, next_o_id - recent_orders), next_o_id))
            if not order_ids:
                return {"district": d, "low_stock": 0}

            line_keys = [make_key("order_line", w, d, order_id, 0) for order_id in order_ids]
            line_rows = yield ReadMany(line_keys)
            items = []
            for key in line_keys:
                item = record_field(line_rows[key], "item", None)
                if item is not None and item not in items:
                    items.append(item)
            if not items:
                return {"district": d, "low_stock": 0}

            stock_keys = [make_key("stock", w, item) for item in items]
            stock_rows = yield ReadMany(stock_keys)
            low = sum(1 for key in stock_keys
                      if (record_field(stock_rows[key], "qty", 0) or 0) < threshold)
            return {"district": d, "low_stock": low}

        return program

    # ------------------------------------------------------------------ #
    # Mix
    # ------------------------------------------------------------------ #
    def transaction_factory(self, mix: Optional[Dict[str, int]] = None
                            ) -> Callable[[], Iterator]:
        """One random transaction drawn from the (standard) TPC-C mix."""
        weights = mix if mix is not None else STANDARD_MIX
        names = list(weights)
        chosen = self.rng.choices(names, weights=[weights[n] for n in names], k=1)[0]
        builders = {
            "new_order": self.new_order_program,
            "payment": self.payment_program,
            "order_status": self.order_status_program,
            "delivery": self.delivery_program,
            "stock_level": self.stock_level_program,
        }
        return builders[chosen]()

"""FreeHealth: an electronic health record (EHR) application.

FreeHealth is the real cloud EHR system the paper ports (Figure 8): doctors
create patients, open *episodes* (the core unit of care that groups
prescriptions, observations and history), look up medical history, and
prescribe drugs after checking interactions.  The workload is read-mostly
with short transactions, and both Obladi and NoPriv end up
contention-bottlenecked on episode creation — the episode counter is a hot
record, just like TPC-C's district rows.

The schema follows Figure 8:

=============================  =============================================
``user:{u}``                    clinician accounts (role, login)
``patient:{p}``                 patient demographics + status
``patient_episode_count:{p}``   per-patient episode counter (hot record)
``episode:{p}:{e}``             one episode (creator, type)
``episode_content:{p}:{e}:{n}`` content rows attached to an episode
``prescription:{p}:{n}``        prescriptions (drug, dosage)
``patient_rx_count:{p}``        per-patient prescription counter
``drug:{d}``                    drug reference data incl. interaction list
``pmh:{p}:{n}``                 past medical history entries
``pmh_count:{p}``               per-patient history counter
=============================  =============================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.core.client import AbortRequest, Read, ReadMany, Write
from repro.workloads.records import (encode_record, make_key, record_field, update_record)


@dataclass(frozen=True)
class FreeHealthConfig:
    """Scale parameters for the EHR database."""

    num_users: int = 20
    num_patients: int = 500
    num_drugs: int = 100
    initial_episodes_per_patient: int = 2
    initial_prescriptions_per_patient: int = 1
    interactions_per_drug: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_patients < 1 or self.num_drugs < 1 or self.num_users < 1:
            raise ValueError("FreeHealth needs at least one user, patient and drug")


#: Read-mostly mix modelled on the paper's description of the application:
#: episode creation is the contended write path; most traffic is lookups.
STANDARD_MIX = {
    "create_patient": 4,
    "create_episode": 14,
    "add_episode_content": 10,
    "prescribe": 12,
    "lookup_patient": 20,
    "medical_history": 16,
    "list_prescriptions": 14,
    "drug_interactions": 6,
    "update_patient": 4,
}


class FreeHealthWorkload:
    """Initial population and transaction programs for the EHR workload."""

    def __init__(self, config: Optional[FreeHealthConfig] = None) -> None:
        self.config = config if config is not None else FreeHealthConfig()
        self.rng = random.Random(self.config.seed)
        self._next_patient_id = self.config.num_patients

    # ------------------------------------------------------------------ #
    # Initial population
    # ------------------------------------------------------------------ #
    def initial_data(self) -> Dict[str, bytes]:
        cfg = self.config
        data: Dict[str, bytes] = {}
        for u in range(cfg.num_users):
            role = "doctor" if u % 3 else "nurse"
            data[make_key("user", u)] = encode_record({"id": u, "role": role,
                                                       "login": f"user{u}"})
        for d in range(cfg.num_drugs):
            interactions = [(d + k + 1) % cfg.num_drugs
                            for k in range(cfg.interactions_per_drug)]
            data[make_key("drug", d)] = encode_record(
                {"id": d, "name": f"drug-{d}", "interactions": interactions})
        for p in range(cfg.num_patients):
            data[make_key("patient", p)] = encode_record(
                {"id": p, "creator": p % cfg.num_users, "active": 1, "age": 20 + p % 60})
            data[make_key("patient_episode_count", p)] = encode_record(
                {"count": cfg.initial_episodes_per_patient})
            data[make_key("patient_rx_count", p)] = encode_record(
                {"count": cfg.initial_prescriptions_per_patient})
            data[make_key("pmh_count", p)] = encode_record({"count": 1})
            data[make_key("pmh", p, 0)] = encode_record(
                {"type": "allergy", "detail": f"allergen-{p % 7}"})
            for e in range(cfg.initial_episodes_per_patient):
                data[make_key("episode", p, e)] = encode_record(
                    {"id": e, "creator": p % cfg.num_users, "type": "consultation"})
                data[make_key("episode_content", p, e, 0)] = encode_record(
                    {"type": "note", "xml": f"visit-{e}"})
            for n in range(cfg.initial_prescriptions_per_patient):
                data[make_key("prescription", p, n)] = encode_record(
                    {"drug": (p + n) % cfg.num_drugs, "dosage": 1})
        data[make_key("patient_count", "global")] = encode_record(
            {"count": cfg.num_patients})
        return data

    # ------------------------------------------------------------------ #
    # Random input helpers
    # ------------------------------------------------------------------ #
    def _random_patient(self) -> int:
        return self.rng.randrange(self.config.num_patients)

    def _random_user(self) -> int:
        return self.rng.randrange(self.config.num_users)

    def _random_drug(self) -> int:
        return self.rng.randrange(self.config.num_drugs)

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def create_patient_program(self) -> Callable[[], Iterator]:
        """Register a new patient (bumps the global patient counter)."""
        creator = self._random_user()

        def program():
            rows = yield ReadMany([make_key("user", creator),
                                   make_key("patient_count", "global")])
            counter_row = rows[make_key("patient_count", "global")]
            new_id = record_field(counter_row, "count", 0) or 0
            yield Write(make_key("patient_count", "global"),
                        update_record(counter_row, count=new_id + 1))
            yield Write(make_key("patient", new_id),
                        encode_record({"id": new_id, "creator": creator, "active": 1,
                                       "age": 30}))
            yield Write(make_key("patient_episode_count", new_id),
                        encode_record({"count": 0}))
            yield Write(make_key("patient_rx_count", new_id), encode_record({"count": 0}))
            yield Write(make_key("pmh_count", new_id), encode_record({"count": 0}))
            return {"patient": new_id}

        return program

    def create_episode_program(self, patient: Optional[int] = None) -> Callable[[], Iterator]:
        """Open a new episode of care: the contended write path of the app."""
        p = patient if patient is not None else self._random_patient()
        creator = self._random_user()

        def program():
            rows = yield ReadMany([make_key("patient", p),
                                   make_key("patient_episode_count", p)])
            patient_row = rows[make_key("patient", p)]
            if record_field(patient_row, "active", 0) != 1:
                yield AbortRequest("inactive patient")
                return {"patient": p, "aborted": True}
            counter_row = rows[make_key("patient_episode_count", p)]
            episode_id = record_field(counter_row, "count", 0) or 0
            yield Write(make_key("patient_episode_count", p),
                        update_record(counter_row, count=episode_id + 1))
            yield Write(make_key("episode", p, episode_id),
                        encode_record({"id": episode_id, "creator": creator,
                                       "type": "consultation"}))
            yield Write(make_key("episode_content", p, episode_id, 0),
                        encode_record({"type": "note", "xml": "initial"}))
            return {"patient": p, "episode": episode_id}

        return program

    def add_episode_content_program(self) -> Callable[[], Iterator]:
        """Attach an observation to the patient's most recent episode."""
        p = self._random_patient()
        content_type = self.rng.choice(["observation", "lab", "note"])

        def program():
            counter_row = yield Read(make_key("patient_episode_count", p))
            count = record_field(counter_row, "count", 0) or 0
            if count == 0:
                yield AbortRequest("patient has no episode")
                return {"patient": p, "aborted": True}
            episode_id = count - 1
            episode_row = yield Read(make_key("episode", p, episode_id))
            del episode_row
            yield Write(make_key("episode_content", p, episode_id, 1),
                        encode_record({"type": content_type, "xml": "update"}))
            return {"patient": p, "episode": episode_id}

        return program

    def prescribe_program(self) -> Callable[[], Iterator]:
        """Prescribe a drug after checking interactions with existing prescriptions."""
        p = self._random_patient()
        drug = self._random_drug()

        def program():
            rows = yield ReadMany([make_key("patient", p), make_key("drug", drug),
                                   make_key("patient_rx_count", p)])
            drug_row = rows[make_key("drug", drug)]
            interactions = set(record_field(drug_row, "interactions", []) or [])
            rx_counter = rows[make_key("patient_rx_count", p)]
            rx_count = record_field(rx_counter, "count", 0) or 0
            existing_rows = {}
            if rx_count > 0:
                rx_keys = [make_key("prescription", p, n) for n in range(min(rx_count, 3))]
                existing_rows = yield ReadMany(rx_keys)
            for existing in existing_rows.values():
                existing_drug = record_field(existing, "drug", -1)
                if existing_drug in interactions:
                    yield AbortRequest("drug interaction")
                    return {"patient": p, "drug": drug, "interaction": existing_drug}
            yield Write(make_key("patient_rx_count", p),
                        update_record(rx_counter, count=rx_count + 1))
            yield Write(make_key("prescription", p, rx_count),
                        encode_record({"drug": drug, "dosage": 1}))
            return {"patient": p, "drug": drug, "prescription": rx_count}

        return program

    def lookup_patient_program(self) -> Callable[[], Iterator]:
        """Read-only chart lookup: demographics plus the latest episode."""
        p = self._random_patient()

        def program():
            rows = yield ReadMany([make_key("patient", p),
                                   make_key("patient_episode_count", p)])
            patient_row = rows[make_key("patient", p)]
            count = record_field(rows[make_key("patient_episode_count", p)], "count", 0) or 0
            latest = None
            if count > 0:
                episode_row = yield Read(make_key("episode", p, count - 1))
                latest = record_field(episode_row, "type", None)
            return {"patient": p, "active": record_field(patient_row, "active", 0),
                    "latest_episode": latest}

        return program

    def medical_history_program(self) -> Callable[[], Iterator]:
        """Read-only: past medical history entries for a patient."""
        p = self._random_patient()

        def program():
            header = yield ReadMany([make_key("patient", p), make_key("pmh_count", p)])
            count = record_field(header[make_key("pmh_count", p)], "count", 0) or 0
            entries = []
            if count > 0:
                keys = [make_key("pmh", p, n) for n in range(min(count, 3))]
                rows = yield ReadMany(keys)
                entries = [record_field(rows[k], "type", None) for k in keys]
            return {"patient": p, "history": entries}

        return program

    def list_prescriptions_program(self) -> Callable[[], Iterator]:
        """Read-only: current prescriptions of a patient."""
        p = self._random_patient()

        def program():
            counter_row = yield Read(make_key("patient_rx_count", p))
            count = record_field(counter_row, "count", 0) or 0
            drugs = []
            if count > 0:
                keys = [make_key("prescription", p, n) for n in range(min(count, 4))]
                rows = yield ReadMany(keys)
                drugs = [record_field(rows[k], "drug", None) for k in keys]
            return {"patient": p, "drugs": drugs}

        return program

    def drug_interactions_program(self) -> Callable[[], Iterator]:
        """Read-only: interaction list of a pair of drugs."""
        a = self._random_drug()
        b = self._random_drug()

        def program():
            rows = yield ReadMany([make_key("drug", a), make_key("drug", b)])
            row_a = rows[make_key("drug", a)]
            row_b = rows[make_key("drug", b)]
            inter_a = set(record_field(row_a, "interactions", []) or [])
            conflict = b in inter_a or a in set(record_field(row_b, "interactions", []) or [])
            return {"drugs": (a, b), "conflict": conflict}

        return program

    def update_patient_program(self) -> Callable[[], Iterator]:
        """Update patient demographics / activation status."""
        p = self._random_patient()
        activate = self.rng.random() < 0.9

        def program():
            patient_row = yield Read(make_key("patient", p))
            yield Write(make_key("patient", p),
                        update_record(patient_row, active=1 if activate else 0))
            return {"patient": p, "active": activate}

        return program

    # ------------------------------------------------------------------ #
    # Mix
    # ------------------------------------------------------------------ #
    def transaction_factory(self, mix: Optional[Dict[str, int]] = None) -> Callable[[], Iterator]:
        weights = mix if mix is not None else STANDARD_MIX
        names = list(weights)
        chosen = self.rng.choices(names, weights=[weights[n] for n in names], k=1)[0]
        builders = {
            "create_patient": self.create_patient_program,
            "create_episode": self.create_episode_program,
            "add_episode_content": self.add_episode_content_program,
            "prescribe": self.prescribe_program,
            "lookup_patient": self.lookup_patient_program,
            "medical_history": self.medical_history_program,
            "list_prescriptions": self.list_prescriptions_program,
            "drug_interactions": self.drug_interactions_program,
            "update_patient": self.update_patient_program,
        }
        return builders[chosen]()

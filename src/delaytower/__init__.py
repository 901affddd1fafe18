"""Delay towers: chained delay-function proofs as proof of elapsed time,
validator-side acceptance and rotation, and a deterministic network simulator.
"""

from .ledger import (
    AlreadyRegistered,
    EpochConfig,
    ForeignSigner,
    InvalidProof,
    InvalidSignature,
    InvalidSnapshot,
    LedgerState,
    MinerState,
    Ranking,
    UnknownMiner,
    quorum,
)
from .reconfig import (
    EpochSummary,
    LifecycleState,
    advance_epoch,
    get_validator_universe,
    jail_failed_validators,
    lifecycle_of,
    propose_validator_set,
)
from .sim import (
    NEVER_RECOVERED,
    Behavior,
    BehaviorKind,
    InvalidScenario,
    RealVdf,
    Scenario,
    SimMetrics,
    nakamoto_liveness,
    recovery_time,
    run,
)
from .signing import Ed25519Scheme, KeyedHashScheme, SignatureScheme
from .tower import CorruptTower, ProofRecord, Tower, extend, grow, init_tower, link_digest, \
    load_tower, save_tower, validate_chain
from .vdf import (
    InputOutOfRange,
    InvalidSecurityParams,
    PublicParams,
    SecurityParams,
    VdfProof,
    check_proof,
    fast_reject,
    setup,
    verify,
)

__version__ = "0.1.0"

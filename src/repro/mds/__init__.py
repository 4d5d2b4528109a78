"""Metadata service layer: the namespace API behind the DUFS client.

``MetadataService`` abstracts lookup/create/delete/readdir/multi + watch
registration; ``SingleEnsembleMDS`` is the paper's one-ensemble design
(byte-identical traces), ``ShardedMDS`` scales writes across N
independent ensembles with a deterministic ``ShardMap`` and a two-phase
cross-shard intent protocol.
"""

from .base import MetadataService, as_metadata_service
from .shardmap import ShardMap, ShardMapRegistry, parent_dir
from .single import SingleEnsembleMDS
from .sharded import (
    INTENT_ROOT,
    ShardedMDS,
    apply_intent_to_view,
    decode_intent,
    default_is_dir,
    encode_intent,
    make_route_guard,
)
from .migrate import (
    MIGRATION_MARKER,
    Migration,
    Migrator,
    encode_migration,
    is_migration_marker,
)
from .autoscaler import Autoscaler

__all__ = [
    "MetadataService",
    "as_metadata_service",
    "ShardMap",
    "ShardMapRegistry",
    "parent_dir",
    "SingleEnsembleMDS",
    "ShardedMDS",
    "INTENT_ROOT",
    "apply_intent_to_view",
    "decode_intent",
    "encode_intent",
    "default_is_dir",
    "make_route_guard",
    "MIGRATION_MARKER",
    "Migration",
    "Migrator",
    "encode_migration",
    "is_migration_marker",
    "Autoscaler",
]

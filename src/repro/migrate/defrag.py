"""The background defragmenter (a controller-tick consolidation loop).

Every scheduler tick the defragmenter measures fragmentation — per node and
cluster-wide, both as 1 − largest-free-rectangle / total-free — and, when
the cluster signal crosses its threshold, asks the placement layer for a
budgeted consolidation batch (:meth:`plan_migrations`) and executes it
through the :class:`~repro.migrate.MigrationController`.

Planning is min-cost by construction: the cheapest-to-vacate GPUs (least
used area, fewest pods) go first, only full evacuations are planned (a
partial move pays migration cost without releasing a GPU), and at most
``max_moves_per_tick`` migrations start per tick.  While a batch is still
in flight no new batch is planned, so the defragmenter never floods the
fabric with overlapping transfers.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.k8s.cluster import Cluster
    from repro.migrate.controller import MigrationController
    from repro.scheduler.mra import MaximalRectanglesScheduler
    from repro.sim.engine import Engine


class Defragmenter:
    """Threshold-triggered, budget-bounded background consolidation."""

    def __init__(
        self,
        engine: "Engine",
        migrator: "MigrationController",
        placement: "MaximalRectanglesScheduler",
        cluster: "Cluster",
        threshold: float = 0.5,
        max_moves_per_tick: int = 2,
    ):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"defrag threshold {threshold} outside (0, 1)")
        if max_moves_per_tick < 1:
            raise ValueError("max_moves_per_tick must be >= 1")
        self.engine = engine
        self.migrator = migrator
        self.placement = placement
        self.cluster = cluster
        self.threshold = threshold
        self.max_moves_per_tick = max_moves_per_tick
        self.ticks = 0

    def fragmentation_snapshot(self) -> dict[str, _t.Any]:
        return {
            "cluster": self.placement.cluster_fragmentation(),
            "nodes": self.placement.fragmentation_by_node(),
        }

    def on_tick(self) -> list:
        """One controller tick; returns the migration processes started."""
        self.ticks += 1
        snapshot = self.fragmentation_snapshot()
        hub = self.engine.hub
        if hub.enabled:
            hub.emit(
                self.engine.now,
                "migrate",
                "frag",
                "cluster",
                cluster=snapshot["cluster"],
                nodes=dict(snapshot["nodes"]),
                in_flight=self.migrator.in_flight,
            )
        if self.migrator.in_flight:
            return []  # let the current batch land before planning anew
        if snapshot["cluster"] < self.threshold:
            return []
        moves = self.placement.plan_migrations(
            self.max_moves_per_tick,
            allowed=self._allowed,
            movable=self.migrator.migratable,
        )
        if not moves:
            return []
        started = []
        for move in moves:
            pod = self.cluster.pods.get(move.pod_id)
            if pod is None:
                continue
            proc = self.migrator.migrate(
                pod.spec.function_name, move.pod_id, move.dst, target=move.target
            )
            if proc is not None:
                started.append(proc)
        return started

    def _allowed(self, pod_id: str, node_name: str) -> bool:
        """Destination veto: the pod's spec must fit the node's GPU memory."""
        pod = self.cluster.pods.get(pod_id)
        if pod is None:
            return False
        return self.cluster.node(node_name).fits_memory(pod)

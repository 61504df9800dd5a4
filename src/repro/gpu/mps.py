"""NVIDIA Multi-Process Service (MPS) model.

The paper's spatial backend (§3.3.1) runs one MPS control daemon per GPU node
(in a DaemonSet container exposing the IPC namespace) and connects every
FaSTPod as an MPS *client* whose SM share is capped through
``CUDA_MPS_ACTIVE_THREAD_PERCENTAGE``.

This module reproduces the control surface: server lifecycle (exclusive
compute mode), client registration with an active-thread percentage, and the
translation of a client's percentage into the burst ``sm_demand`` the device
model enforces.  With the server disabled, contexts fall back to the default
time-multiplexed behaviour (demand = 100%, serialised execution).
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import GPUDevice


class MPSError(RuntimeError):
    """Raised on invalid MPS control operations."""


class MPSClient:
    """One process's connection to the MPS server."""

    __slots__ = ("server", "owner", "active_thread_percentage", "connected")

    def __init__(self, server: "MPSServer", owner: str, active_thread_percentage: float):
        if not 0 < active_thread_percentage <= 100:
            raise MPSError(
                f"CUDA_MPS_ACTIVE_THREAD_PERCENTAGE={active_thread_percentage} outside (0, 100]"
            )
        self.server = server
        self.owner = owner
        self.active_thread_percentage = float(active_thread_percentage)
        self.connected = True

    @property
    def sm_demand(self) -> float:
        """The SM demand (%) bursts from this client carry."""
        return self.active_thread_percentage

    def set_active_thread_percentage(self, percentage: float) -> None:
        """Re-partition the client (the paper re-provisions on re-deploy)."""
        if not 0 < percentage <= 100:
            raise MPSError(f"percentage {percentage} outside (0, 100]")
        self.active_thread_percentage = float(percentage)

    def disconnect(self) -> None:
        if self.connected:
            self.connected = False
            self.server._drop(self)


class MPSServer:
    """The per-GPU MPS control daemon.

    The paper's DaemonSet sets ``nvidia-smi -c EXCLUSIVE_PROCESS`` so all
    work funnels through the MPS server.  Σ configured percentages may
    over-subscribe (MPS allows it); the server exposes the oversubscription
    level for diagnostics — keeping the *running* total within 100% is the
    FaST Backend's job, not MPS's.
    """

    def __init__(self, device: "GPUDevice"):
        self.device = device
        self.running = False
        self.clients: list[MPSClient] = []

    def start(self) -> None:
        if self.running:
            raise MPSError(f"MPS server on {self.device.name} already running")
        self.running = True

    def stop(self) -> None:
        if self.clients:
            raise MPSError(
                f"cannot stop MPS on {self.device.name}: {len(self.clients)} clients connected"
            )
        self.running = False

    def connect(self, owner: str, active_thread_percentage: float) -> MPSClient:
        """Register a client process with its SM partition."""
        if not self.running:
            raise MPSError(f"MPS server on {self.device.name} is not running")
        client = MPSClient(self, owner, active_thread_percentage)
        self.clients.append(client)
        return client

    def _drop(self, client: MPSClient) -> None:
        try:
            self.clients.remove(client)
        except ValueError:
            pass

    @property
    def configured_percentage_total(self) -> float:
        return sum(c.active_thread_percentage for c in self.clients)

    @property
    def oversubscribed(self) -> bool:
        return self.configured_percentage_total > 100.0

"""Function specifications and the FaaS function registry.

A FaSTFunc (paper §3.2) wraps the user's model code/image; here the spec
binds a function name to a model profile, its latency SLO, whether its
pods use model sharing, and the replica floor the FaST-Scheduler defends.
"""

from __future__ import annotations

import dataclasses

from repro.models import ModelProfile, get_model


@dataclasses.dataclass(frozen=True, slots=True)
class FunctionSpec:
    """One deployed FaaS function."""

    name: str
    model: ModelProfile
    slo_ms: float
    use_model_sharing: bool = False
    #: Override of the model's weight size (MB) for the memory tier — the
    #: bytes that park in host RAM and transit the fabric on swap-in.
    #: ``None`` uses the model profile's ``weights_mb``.
    weight_mb: float | None = None
    #: The reactive floor the FaST-Scheduler never drains below (predictive
    #: policies may still park below it during keep-alive scale-to-zero —
    #: that is their point).
    min_replicas: int = 1

    def __post_init__(self) -> None:
        if self.min_replicas < 0:
            raise ValueError(f"function {self.name!r}: min_replicas must be >= 0")

    @classmethod
    def from_model(
        cls,
        name: str,
        model_name: str,
        slo_ms: float | None = None,
        use_model_sharing: bool = False,
        weight_mb: float | None = None,
        min_replicas: int = 1,
    ) -> "FunctionSpec":
        model = get_model(model_name)
        return cls(
            name=name,
            model=model,
            slo_ms=slo_ms if slo_ms is not None else model.slo_ms,
            use_model_sharing=use_model_sharing,
            weight_mb=weight_mb,
            min_replicas=min_replicas,
        )

    def pod_gpu_mem_mb(self) -> float:
        """Device memory one pod of this function pins (excl. server share)."""
        memory = self.model.memory
        return memory.shared_pod_mb if self.use_model_sharing else memory.original_mb

    def swap_weights_mb(self) -> float:
        """Bytes (MB) parked in host RAM / swapped over the fabric per pod.

        Only the parameter tensors move: framework context and activation
        workspace are (re)allocated on the GPU, not copied.
        """
        return self.weight_mb if self.weight_mb is not None else self.model.memory.weights_mb


class FunctionRegistry:
    """Name → spec registry (the gateway's function table)."""

    def __init__(self) -> None:
        self._functions: dict[str, FunctionSpec] = {}

    def register(self, spec: FunctionSpec) -> None:
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already registered")
        self._functions[spec.name] = spec

    def get(self, name: str) -> FunctionSpec:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "<none>"
            raise KeyError(f"unknown function {name!r}; known: {known}") from None

    def names(self) -> list[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)

"""Algorithm parameters (Sect. 4).

The algorithm is defined by four constants ``alpha``, ``beta``, ``gamma``,
``sigma`` trading running time against correctness probability, plus the
model knowledge every node is given: estimates of ``n`` and ``Delta`` and
the BIG constants ``kappa_1``, ``kappa_2``.

Two regimes are provided:

- :meth:`Parameters.theoretical` — the closed-form values of Sect. 4 that
  make the n^{-5} bounds of Lemmas 2–4 go through (huge constants, used
  by the analysis-validation tests at tiny scale);
- :meth:`Parameters.practical` — small constants.  The paper states that
  "simulation results show that in networks whose nodes are uniformly
  distributed at random significantly smaller values suffice"; the E6
  ablation bench is the experiment behind that sentence, and the defaults
  here are its outcome.

Derived quantities follow the pseudocode exactly:

========================  =======================================
``wait_slots``            ``ceil(alpha * Delta * log n)``  (Alg. 1, L4)
``critical_range(i)``     ``ceil(gamma * zeta_i * log n)`` (L15/L29),
                          ``zeta_0 = 1``, ``zeta_i = Delta`` for i>0 (L2)
``threshold``             ``ceil(sigma * Delta * log n)``  (L19)
``p_active``              ``1/(kappa_2 * Delta)``          (L22)
``p_leader``              ``1/kappa_2``                    (Alg. 3, L14/L19)
``serve_window``          ``ceil(beta * log n)``           (Alg. 3, L18)
========================  =======================================
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro._util import ceil_log

if TYPE_CHECKING:
    from repro.graphs.deployment import Deployment

__all__ = ["Parameters", "paper_time_bound", "suggested_max_slots"]


@dataclass(frozen=True)
class Parameters:
    """Immutable parameter set handed to every node.

    ``n`` and ``delta`` are the *estimates* the model grants nodes
    (Sect. 2: "it is usually possible to pre-estimate rough bounds");
    they must upper-bound the true values for the guarantees to hold.
    ``delta`` counts the node itself (paper footnote 1).
    """

    n: int
    delta: int
    kappa1: int
    kappa2: int
    alpha: float
    beta: float
    gamma: float
    sigma: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n estimate must be >= 2")
        if self.delta < 2:
            raise ValueError("delta estimate must be >= 2 (counts the node itself)")
        if self.kappa1 < 1 or self.kappa2 < 2:
            # kappa_2 = 1 only for cliques-of-everything; the leader would
            # then transmit with probability 1 and could never receive a
            # request -> the protocol deadlocks.  Clamp to 2 upstream.
            raise ValueError("need kappa1 >= 1 and kappa2 >= 2")
        if self.kappa1 > self.kappa2:
            raise ValueError("kappa1 cannot exceed kappa2")
        if min(self.alpha, self.beta, self.gamma, self.sigma) <= 0:
            raise ValueError("alpha, beta, gamma, sigma must be positive")
        if self.sigma <= 2 * self.gamma:
            # Theorem 2's second case needs sigma*Delta*log n > 2*gamma*
            # Delta*log n so counters cannot have been reset inside I_w.
            raise ValueError("analysis requires sigma > 2*gamma")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def theoretical(cls, n: int, delta: int, kappa1: int, kappa2: int) -> "Parameters":
        """The Sect. 4 closed-form constants (for Delta >= 2)::

            gamma = 5 k2 / ( [e^-1 (1 - 1/k2)]^(k1/k2) * [e^-1 (1 - 1/(k2 D))]^(1/k2) )
            sigma = 10 e^2 k2 / ( (1 - 1/k2) (1 - 1/(k2 D)) )

        with ``beta = gamma`` (Lemma 8 requires ``beta >= gamma``) and
        ``alpha = 2 gamma k2 + sigma + 2`` (Lemma 7 requires
        ``alpha > 2 gamma k2 + sigma + 1``).
        """
        if kappa2 < 2:
            raise ValueError("theoretical constants need kappa2 >= 2")
        k1, k2, d = kappa1, kappa2, delta
        denom = (math.exp(-1) * (1 - 1 / k2)) ** (k1 / k2) * (
            math.exp(-1) * (1 - 1 / (k2 * d))
        ) ** (1 / k2)
        gamma = 5 * k2 / denom
        sigma = 10 * math.e**2 * k2 / ((1 - 1 / k2) * (1 - 1 / (k2 * d)))
        alpha = 2 * gamma * k2 + sigma + 2
        return cls(
            n=n,
            delta=d,
            kappa1=k1,
            kappa2=k2,
            alpha=alpha,
            beta=gamma,
            gamma=gamma,
            sigma=sigma,
        )

    @classmethod
    def practical(
        cls,
        n: int,
        delta: int,
        kappa1: int,
        kappa2: int,
        *,
        scale: float = 1.0,
    ) -> "Parameters":
        """Small constants validated by the E6 ablation (uniform random
        UDGs): ``gamma = 2 kappa2 * scale``, ``sigma = 2.5 gamma + 1``,
        ``alpha = beta = gamma``.  ``scale`` < 1 trades failure
        probability for speed (the ablation quantifies the trade-off)."""
        gamma = max(0.5, 2.0 * kappa2 * scale)
        return cls(
            n=n,
            delta=delta,
            kappa1=kappa1,
            kappa2=kappa2,
            alpha=gamma,
            beta=gamma,
            gamma=gamma,
            sigma=2.5 * gamma + 1.0,
        )

    @classmethod
    def for_deployment(
        cls,
        dep: "Deployment",
        *,
        regime: str = "practical",
        **kwargs: float,
    ) -> "Parameters":
        """Derive parameters from a deployment by measuring ``Delta`` and
        the exact ``kappa`` values (clamped to the protocol minimums).

        ``regime`` and ``kwargs`` are checked before ``kappa`` is measured:
        an unknown regime, or a keyword argument its constructor does not
        take, raises :class:`ValueError`."""
        from repro.graphs.independence import kappas

        factory = {"practical": cls.practical, "theoretical": cls.theoretical}.get(regime)
        if factory is None:
            raise ValueError(f"unknown regime {regime!r}")
        options = inspect.signature(factory).parameters.values()
        unknown = sorted(set(kwargs) - {p.name for p in options if p.kind is p.KEYWORD_ONLY})
        if unknown:
            raise ValueError(
                f"regime {regime!r} takes no keyword argument {', '.join(map(repr, unknown))}"
            )
        k1, k2 = kappas(dep)
        k2 = max(2, k2)
        k1 = max(1, min(k1, k2))
        n = max(2, dep.n)
        delta = max(2, dep.max_degree)
        return factory(n, delta, k1, k2, **kwargs)

    def with_overrides(self, **kwargs: float) -> "Parameters":
        """Return a copy with some fields replaced (ablation sweeps)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Derived quantities (pseudocode names in comments)
    # ------------------------------------------------------------------
    def zeta(self, i: int) -> int:
        """``zeta_i`` (Alg. 1, L2): 1 for the leader-election state, the
        Delta estimate for all verification states."""
        return 1 if i == 0 else self.delta

    def critical_range(self, i: int) -> int:
        """``ceil(gamma * zeta_i * log n)`` (Alg. 1, L15/L29)."""
        return ceil_log(self.gamma * self.zeta(i), self.n)

    @property
    def wait_slots(self) -> int:
        """Passive listening period ``ceil(alpha * Delta * log n)`` (L4)."""
        return ceil_log(self.alpha * self.delta, self.n)

    @property
    def threshold(self) -> int:
        """Decision threshold ``ceil(sigma * Delta * log n)`` (L19)."""
        return ceil_log(self.sigma * self.delta, self.n)

    @property
    def p_active(self) -> float:
        """Transmission probability of non-leader nodes, ``1/(kappa2*Delta)``."""
        return 1.0 / (self.kappa2 * self.delta)

    @property
    def p_leader(self) -> float:
        """Transmission probability of leaders, ``1/kappa2``."""
        return 1.0 / self.kappa2

    @property
    def serve_window(self) -> int:
        """Per-request assignment window ``ceil(beta * log n)`` (Alg. 3, L18)."""
        return ceil_log(self.beta, self.n)

    def color_for_tc(self, tc: int) -> int:
        """First color a node with intra-cluster color ``tc`` verifies:
        ``tc * (kappa2 + 1)`` (Alg. 2, L4)."""
        return tc * (self.kappa2 + 1)

    # ------------------------------------------------------------------
    def check_analysis_preconditions(self, *, strict: bool = False) -> list[str]:
        """Return (or raise on, if ``strict``) violated preconditions of
        the Sect. 5 analysis.  The practical regime intentionally violates
        the ``alpha`` condition — that is the whole point of E6."""
        problems = []
        if self.alpha <= 2 * self.gamma * self.kappa2 + self.sigma + 1:
            problems.append(
                "alpha <= 2*gamma*kappa2 + sigma + 1 (Lemma 7 needs newly "
                "woken nodes to stay silent past a winner's run to threshold)"
            )
        if self.beta < self.gamma:
            problems.append("beta < gamma (Lemma 8 applies Lemma 3 to responses)")
        if strict and problems:
            raise ValueError("; ".join(problems))
        return problems


def paper_time_bound(params: Parameters) -> int:
    """The explicit per-node slot bound assembled in Theorem 3's proof:
    ``(kappa2+1)`` verification states (Corollary 1), each costing at most
    the Lemma 7 budget, plus the Lemma 8 request-state budget."""
    p = params
    logn = ceil_log(1.0, p.n)
    per_state = (
        p.wait_slots
        + p.kappa2 * (math.ceil(p.sigma / 2 * p.delta * logn) + math.ceil((2 * p.gamma * p.kappa2 + p.sigma) * p.delta * logn) + 1)
        + p.critical_range(1)
    )
    request = math.ceil((p.gamma + p.beta) * p.delta * logn)
    return (p.kappa2 + 1) * per_state + request


def suggested_max_slots(params: Parameters, wake_max: int = 0, slack: float = 2.0) -> int:
    """A generous simulation cap: the paper bound (which already holds only
    w.h.p.) scaled by ``slack``, offset by the last wake-up."""
    return int(wake_max + slack * paper_time_bound(params))

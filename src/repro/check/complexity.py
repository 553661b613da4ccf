"""Symbolic message-complexity model derived from a protocol spec.

The engines charge messages by one law, shared by every code path
(coin-group multinomial charge -- a probability-1 action is a
singleton group whose split is the occupancy -- independent-coin
fallback, naive engine): when an actor's coin falls
heads it sends ``width`` peer contacts, where ``width`` is
``len(required_states)`` for sample/tokenize, ``fanout`` for
any-of/push, and 0 for flip.  Charges are *unthinned* -- message loss
and match failure discard effects, never contacts, and oracle token
delivery is free.  Therefore, conditional on the period-start counts
``c``::

    E[messages in one period | c]  =  sum_a  width_a * p_a * c[actor_a]

which is linear in the counts with per-state coefficients readable
straight off the spec.  That is the whole model; this module exposes
it three ways:

* **symbolically** -- per-period expected total as a sympy expression
  in the population size ``N``, the state fractions ``x_s``, the coin
  biases ``p_i`` and fan-outs ``k_i`` (the paper's Section 3 cost
  discussion, now machine-derived);
* **numerically** -- ``expected_messages(fractions, n)`` for one
  period at a mean-field point;
* **as a cross-check** -- ``predict_total`` / ``zscore`` turn a
  recorded counts tensor into a prediction (with a conservative
  variance bound) for the engine's measured ``total_messages``.  The
  per-period prediction error is a martingale difference (zero mean
  conditional on the realized period-start counts), so the z-score of
  the summed error is well calibrated and tests can gate on it.

Runtime ``loss_rate`` deliberately does **not** appear: the planner
folds loss into *effect* thinning after charging, so the expected
charge is loss-independent.  Failure compensation baked into the coin
biases at synthesis time (the ``(1/(1-f))^(|T|-1)`` factor) *is*
visible, because it lives in ``action.probability``.

Variance bound: within a coin group the per-action head counts are
jointly multinomial, so their covariance is negative and
``sum_a width_a^2 * p_a * (1 - p_a) * c[actor_a]`` (independent
binomials) is a conservative upper bound on the true per-period
variance; probability-1 actions (singleton groups, ``p = 1``)
contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..synthesis.actions import Action, AnyOfSampleAction, PushAction
from ..synthesis.protocol import ProtocolSpec


def action_width(action: Action) -> int:
    """Peer contacts per firing (the planner's ``_action_width`` law).

    Identical to ``Action.messages_per_period``: ``fanout`` for
    any-of/push, ``len(required_states)`` for sample/tokenize, 0 for
    flip.
    """
    return action.messages_per_period


@dataclass(frozen=True)
class MessageModel:
    """Per-period message cost of a spec, linear in the state counts.

    ``coefficients[s]`` is the expected number of messages one process
    in state ``states[s]`` sends per period; ``variances[s]`` the
    conservative per-process variance bound.  Both are exact
    consequences of the engines' charging law, not fits.
    """

    spec: ProtocolSpec
    states: Tuple[str, ...]
    coefficients: np.ndarray
    variances: np.ndarray

    def per_state_cost(self) -> Dict[str, float]:
        """Expected messages per process per period, by state."""
        return {s: float(c) for s, c in zip(self.states, self.coefficients)}

    def expected_messages(
        self, fractions: Mapping[str, float], n: float
    ) -> float:
        """Expected total messages in one period at a mean-field point.

        ``fractions`` maps states to population fractions (missing
        states count as 0); ``n`` is the population size.
        """
        return float(n) * sum(
            float(fractions.get(s, 0.0)) * float(c)
            for s, c in zip(self.states, self.coefficients)
        )

    # ------------------------------------------------------------------
    # Cross-check API against measured engine totals
    # ------------------------------------------------------------------
    def _column_order(
        self, states: Optional[Sequence[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if states is None:
            return self.coefficients, self.variances
        index = {s: i for i, s in enumerate(self.states)}
        coeff = np.zeros(len(states))
        var = np.zeros(len(states))
        for j, state in enumerate(states):
            i = index.get(str(state))
            if i is not None:
                coeff[j] = self.coefficients[i]
                var[j] = self.variances[i]
        return coeff, var

    def predict_total(
        self,
        counts: np.ndarray,
        periods: Optional[Sequence[int]] = None,
        *,
        states: Optional[Sequence[str]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict cumulative messages over a recorded trajectory.

        ``counts`` has shape ``(..., K, S)``: ``K`` recorded rows
        (row 0 is the initial configuration, row ``j`` the state after
        ``periods[j]`` periods) over ``S`` states.  ``periods``
        defaults to ``0..K-1`` (stride 1, where the prediction is
        exact in expectation); with a recording stride the intervening
        periods are weighted by the last recorded row (left-constant),
        which is an approximation.  ``states`` reorders/matches the
        count columns when they differ from the spec's state order.

        Returns ``(mean, variance_bound)`` with shape
        ``counts.shape[:-2]``.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.ndim < 2:
            raise ValueError("counts must have shape (..., K, S)")
        k = counts.shape[-2]
        if periods is None:
            labels = np.arange(k)
        else:
            labels = np.asarray(periods, dtype=float)
            if labels.shape != (k,):
                raise ValueError(
                    f"periods must have length {k}, got {labels.shape}"
                )
        weights = np.diff(labels)
        if k < 2 or np.any(weights < 0):
            raise ValueError("periods must be increasing with >= 2 rows")
        coeff, var = self._column_order(states)
        starts = counts[..., :-1, :]
        mean = np.einsum("...ks,s,k->...", starts, coeff, weights)
        bound = np.einsum("...ks,s,k->...", starts, var, weights)
        return mean, bound

    def zscore(
        self,
        measured: np.ndarray,
        counts: np.ndarray,
        periods: Optional[Sequence[int]] = None,
        *,
        states: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """z-score of measured totals against the model prediction.

        ``measured`` must broadcast against ``counts.shape[:-2]`` (one
        engine ``total_messages`` entry per trajectory).  Where the
        variance bound is zero (all charging deterministic) the score
        is 0 on exact agreement and ``inf`` otherwise.  Because the
        bound is conservative, gating ``|z| <= z_bound`` is
        conservative too.
        """
        mean, bound = self.predict_total(counts, periods, states=states)
        measured = np.asarray(measured, dtype=float)
        error = measured - mean
        with np.errstate(divide="ignore", invalid="ignore"):
            z = error / np.sqrt(bound)
        exact = bound == 0
        if np.ndim(z) == 0:
            if exact:
                return np.float64(0.0 if error == 0 else np.inf)
            return np.float64(z)
        z = np.asarray(z)
        z[exact & (error == 0)] = 0.0
        z[exact & (error != 0)] = np.inf
        return z


def message_model(spec: ProtocolSpec) -> MessageModel:
    """Build the numeric :class:`MessageModel` for a spec."""
    states = tuple(spec.states)
    coefficients = np.zeros(len(states))
    variances = np.zeros(len(states))
    index = {s: i for i, s in enumerate(states)}
    for action in spec.actions:
        width = action_width(action)
        if width == 0:
            continue
        i = index[action.actor_state]
        p = action.probability
        coefficients[i] += width * p
        variances[i] += width * width * p * (1.0 - p)
    return MessageModel(
        spec=spec,
        states=states,
        coefficients=coefficients,
        variances=variances,
    )


# ----------------------------------------------------------------------
# Symbolic form (sympy)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SymbolicMessageModel:
    """Sympy form of the message model.

    ``total`` is the expected messages per period as an expression in
    ``N``, the state fractions ``x_s``, the coin-bias symbols ``p_i``
    and fan-out symbols ``k_i``; ``per_state`` maps each state to its
    per-process cost expression; ``substitutions`` binds every symbol
    except ``N`` and the fractions to the spec's concrete values, so
    ``total.subs(substitutions)`` recovers the numeric model.
    ``legend`` explains which action each ``p_i`` / ``k_i`` belongs
    to.
    """

    total: "object"
    per_state: Dict[str, "object"]
    n_symbol: "object"
    fraction_symbols: Dict[str, "object"]
    substitutions: Dict["object", float]
    legend: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def render(self) -> str:
        lines = [f"E[messages/period] = {self.total}"]
        for state, expr in self.per_state.items():
            lines.append(f"  per {state}-process: {expr}")
        for symbol, meaning in self.legend:
            lines.append(f"  {symbol}: {meaning}")
        return "\n".join(lines)


def symbolic_message_model(spec: ProtocolSpec) -> SymbolicMessageModel:
    """Derive the sympy expression straight from the spec's actions."""
    import sympy

    n = sympy.Symbol("N", positive=True)
    fractions = {
        s: sympy.Symbol(f"x_{s}", nonnegative=True) for s in spec.states
    }
    per_state: Dict[str, "sympy.Expr"] = {
        s: sympy.Integer(0) for s in spec.states
    }
    substitutions: Dict["sympy.Symbol", float] = {}
    legend: List[Tuple[str, str]] = []
    for i, action in enumerate(spec.actions):
        structural_width = action_width(action)
        if structural_width == 0:
            continue
        bias = sympy.Symbol(f"p_{i}", nonnegative=True)
        substitutions[bias] = float(action.probability)
        legend.append((f"p_{i}", f"coin bias of {action.describe()}"))
        if isinstance(action, (AnyOfSampleAction, PushAction)):
            width: "sympy.Expr" = sympy.Symbol(f"k_{i}", positive=True)
            substitutions[width] = float(action.fanout)
            legend.append((f"k_{i}", f"fan-out of {action.describe()}"))
        else:
            width = sympy.Integer(structural_width)
        per_state[action.actor_state] += width * bias
    total = n * sum(
        fractions[s] * per_state[s] for s in spec.states
    )
    return SymbolicMessageModel(
        total=sympy.expand(total),
        per_state=dict(per_state),
        n_symbol=n,
        fraction_symbols=fractions,
        substitutions=substitutions,
        legend=tuple(legend),
    )

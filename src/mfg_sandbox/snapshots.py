"""Versioned JSON snapshot format shared across the package.

A run snapshot captures the full mutable state of a learning run (episode,
step, mean-field, policy, Q-table, transition counts, generator state) so an
aborted run can be inspected or resumed by hand. Equilibrium solutions are
serialized with the same mean_field / policy encoding. All documents carry a
schema_version integer and are written with sorted keys so identical state
produces identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def run_state_snapshot(
    *,
    episode: int,
    step: int,
    agent_state: int,
    mean_field,
    policy,
    q_values,
    pair_counts,
    cached_estimate,
    rng_state,
) -> dict:
    """Full state of a learning run as a JSON-serializable document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_state",
        "episode": int(episode),
        "step": int(step),
        "agent_state": int(agent_state),
        "mean_field": np.asarray(mean_field, dtype=float).tolist(),
        "policy": np.asarray(policy, dtype=float).tolist(),
        "q_values": np.asarray(q_values, dtype=float).tolist(),
        "pair_counts": np.asarray(pair_counts).tolist(),
        "state_counts": np.asarray(pair_counts).sum(axis=1).tolist(),
        "cached_estimate": np.asarray(cached_estimate, dtype=float).tolist(),
        "rng_state": rng_state,
    }


def equilibrium_snapshot(pair) -> dict:
    """Equilibrium pair document; shares the mean_field / policy encoding.

    Records the temperature, discount and tolerance the pair was solved
    with and the damping its solve ended with, taken from the pair itself.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "equilibrium",
        "mean_field": pair.mean_field.tolist(),
        "policy": pair.policy.tolist(),
        "residual_policy": float(pair.residual_policy),
        "residual_mu": float(pair.residual_mu),
        "converged": bool(pair.converged),
        "iterations": int(pair.iterations),
        "vi_sweeps": int(pair.vi_sweeps),
        "lambda": pair.lam,
        "rho": pair.rho,
        "damping": pair.damping,
        "tol": pair.tol,
    }


def dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_json(path, document: dict) -> None:
    Path(path).write_text(dumps(document), encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def restore_rng(rng_state: dict) -> np.random.Generator:
    """Rebuild a generator from a snapshot's rng_state field."""
    gen = np.random.default_rng()
    gen.bit_generator.state = rng_state
    return gen

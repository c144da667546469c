#!/usr/bin/env python3
"""Mutation smoke: would the fast pins notice a small semantic change?

Usage::

    python tools/mutation_smoke.py

For each mutation in :data:`MUTATIONS` the tool copies ``src/`` into a
temporary directory, replaces one exact string in one file (the target must
occur exactly once, or the tool stops with an error), and runs the fast pins
in :data:`PINS` against the copy with ``PYTHONPATH`` pointing at it.  It
prints the test that killed each mutation, or that the mutation survived.

The unmutated copy runs first and must pass, so a broken harness cannot
pass for a good one.  A mutation that is known to survive carries the
reason (``survives``); the tool exits non-zero when a mutation survives
without one, when one with a reason is now killed (drop the reason), or
when a run errors instead of failing.  A surviving mutation gets a new pin
or a recorded reason; it is never dropped from the list.

Stdlib only.  Each run takes a few seconds; the whole list about a minute
or two on a 2-core host.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: The fast pins every mutation runs against.  The neighbour and trust pins
#: were added for mutations that survived the first four: they kill the
#: expiry-boundary and the quorum mutations in well under a second.  The
#: two obstacle-index pins aim rays at the line-of-sight kernel's primitive
#: fallback and its containment step; the lidar-sweep pin compares a moving
#: fleet's frames with per-capture scanning.  The deferred-arrival example compares the
#: deferred broadcast path with the per-receiver event oracle on a fixed
#: fleet (the property around it shrinks for minutes when it fails); the
#: slow-fleet example does the same for commits that hold several
#: arrivals of one pair.  The statistical-kernel pin compares a
#: statistical-tier plan's columns with that tier's kernel bit for bit.
#: The two route pins compare every route of a grid whose routes tie
#: exactly, and of a one-way grid with unreachable pairs, with networkx's.
PINS = (
    "tests/properties/test_property_road_routes.py::test_grid_routes_match_networkx[5-5-200.0]",
    "tests/properties/test_property_road_routes.py::test_one_way_subgrids_cover_every_pair_kind",
    "tests/scenarios/test_scenario_pins.py",
    "tests/radio/test_broadcast_oracle.py",
    "tests/properties/test_property_exact_plan.py",
    "tests/snapshot/test_codec.py",
    "tests/properties/test_property_obstacle_index.py::test_collinear_ray_takes_the_primitive_fallback",
    "tests/properties/test_property_obstacle_index.py::test_rays_inside_a_footprint_are_blocked",
    "tests/properties/test_property_lidar_sweep.py::test_moving_fleet_matches_the_reference",
    "tests/mesh/test_neighbor.py",
    "tests/core/test_trust.py",
    "tests/properties/test_property_deferred_arrivals.py::test_twin_fleet_exercises_ties_crashes_and_joins",
    "tests/properties/test_property_bulk_commit.py::test_slow_fleet_commits_several_arrivals_of_one_pair",
    "tests/radio/test_fast_tier.py::test_fast_plan_columns_come_from_the_statistical_kernel",
)


class Mutation(NamedTuple):
    name: str
    #: File under ``src/``.
    path: str
    old: str
    new: str
    #: Why the pins cannot see this mutation, when that is known.
    survives: Optional[str] = None


MUTATIONS: Tuple[Mutation, ...] = (
    Mutation(
        "event queue: sequence tie-break flipped",
        "repro/simcore/event.py",
        "heapq.heappush(self._entries, (time, priority, sequence, event))",
        "heapq.heappush(self._entries, (time, priority, -sequence, event))",
    ),
    Mutation(
        "broadcast: first receiver's PER draw skipped",
        "repro/radio/interfaces.py",
        "kept = rng.random(count) >= plan.pers",
        "kept = np.concatenate(([True], rng.random(count - 1) >= plan.pers[1:]))",
    ),
    Mutation(
        "path loss: one ulp added to the exact batch",
        "repro/radio/propagation.py",
        "losses = self._reference_loss + (10.0 * self.exponent) * log_terms",
        "losses = np.nextafter(\n"
        "            self._reference_loss + (10.0 * self.exponent) * log_terms, np.inf\n"
        "        )",
    ),
    Mutation(
        "line-of-sight kernel: uncertain pairs skip the primitive",
        "repro/geometry/obstacle_index.py",
        "        if not certain.all():\n",
        "        if False:\n",
    ),
    Mutation(
        "line-of-sight kernel: containment step dropped",
        "repro/geometry/obstacle_index.py",
        "        if inside.any():\n",
        "        if False:\n",
    ),
    Mutation(
        "lidar sweep: pass key ignores the position epoch",
        "repro/data/sensors.py",
        "                self.substrate.position_epoch,\n",
        "                0,\n",
    ),
    Mutation(
        "neighbour table: expiry at >= lifetime",
        "repro/mesh/neighbor.py",
        "gone = now - self.last_seen[rows] > lifetime",
        "gone = now - self.last_seen[rows] >= lifetime",
    ),
    Mutation(
        "trust: strict-majority quorum relaxed to >= half",
        "repro/core/trust.py",
        "base, math.floor(base * self.config.redundancy_quorum) + 1",
        "base, math.ceil(base * self.config.redundancy_quorum)",
    ),
    Mutation(
        "exact kernel: NLOS penalty not added",
        "repro/radio/propagation.py",
        "                losses[occluded] += self.nlos_penalty_db\n"
        "        return losses\n\n    def path_loss_db_simd(",
        "                pass\n"
        "        return losses\n\n    def path_loss_db_simd(",
    ),
    Mutation(
        "exact kernel: noise_penalty_db ignored",
        "repro/radio/link.py",
        "snrs = (self.tx_power_dbm - losses) - (self.noise_dbm + self.noise_penalty_db)",
        "snrs = (self.tx_power_dbm - losses) - self.noise_dbm",
    ),
    Mutation(
        "exact kernel: reference-distance clamp dropped",
        "repro/radio/propagation.py",
        "ratios = np.where(distances > d0, distances, d0) / d0",
        "ratios = distances / d0",
    ),
    Mutation(
        "plan: sender kept among its own candidates",
        "repro/radio/interfaces.py",
        "            in_range[sender_index] = False\n",
        "            pass\n",
    ),
    Mutation(
        "unicast: plan lookup accepts the next receiver",
        "repro/radio/interfaces.py",
        "if i == len(plan.indices) or plan.indices[i] != position:",
        "if i == len(plan.indices):",
    ),
    Mutation(
        "radio refresh: epoch universe not flushed",
        "repro/radio/interfaces.py",
        "        self._plans.clear()\n        self._universe = None\n",
        "        self._plans.clear()\n",
    ),
    Mutation(
        "deferred arrivals: commit skips the last fired arrival",
        "repro/radio/interfaces.py",
        'stop += pending[2][stop:end].searchsorted(sequence, "right")',
        'stop += pending[2][stop:end].searchsorted(sequence, "left")',
    ),
    Mutation(
        "bulk commit keeps the first of two arrivals for one pair",
        "repro/mesh/neighbor.py",
        "last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]",
        "last = first",
    ),
    Mutation(
        "beacon agent: build_beacon reads the epoch without committing",
        "repro/mesh/discovery.py",
        '        """Construct the next outgoing beacon, applying all enrichers."""\n'
        "        self._commit()\n",
        '        """Construct the next outgoing beacon, applying all enrichers."""\n',
    ),
    Mutation(
        "plan: statistical tier builds with the exact kernel",
        "repro/radio/interfaces.py",
        "        if self.fast_math:\n",
        "        if False:\n",
    ),
    Mutation(
        "canonical pickler: strings pickled by identity",
        "repro/snapshot/codec.py",
        "            return sys.intern(obj)\n",
        "            return obj\n",
    ),
    Mutation(
        "canonical pickler: dtypes pickled by identity",
        "repro/snapshot/codec.py",
        "            return self._dtypes.setdefault(obj, obj)\n",
        "            return obj\n",
    ),
    Mutation(
        "road routes: ties relaxed with <=",
        "repro/mobility/road_network.py",
        "if w not in seen[direction] or reach < seen[direction][w]:",
        "if w not in seen[direction] or reach <= seen[direction][w]:",
    ),
    Mutation(
        "road routes: only the forward search expands",
        "repro/mobility/road_network.py",
        "direction = 1 - direction",
        "direction = 0",
    ),
    Mutation(
        "substrate: commit does not advance the position epoch",
        "repro/geometry/substrate.py",
        "        self.position_epoch += 1\n        self.commit_count += 1\n",
        "        self.commit_count += 1\n",
    ),
)


def _copy_src(destination: Path) -> Path:
    src = destination / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: Path, mutation: Mutation) -> None:
    target = src / mutation.path
    text = target.read_text()
    found = text.count(mutation.old)
    if found != 1:
        raise SystemExit(
            f"mutation {mutation.name!r}: target occurs {found} times in "
            f"src/{mutation.path} (expected exactly once); update the list"
        )
    target.write_text(text.replace(mutation.old, mutation.new))


def _environment(src: Path) -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(src)
    # No bytecode in the copy: every run compiles what it imports afresh.
    environment["PYTHONDONTWRITEBYTECODE"] = "1"
    return environment


def _run_pins(src: Path, workdir: Path) -> Tuple[int, str]:
    """Pytest's exit code and the first failing test id (or ``""``)."""
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-rf",
        "-p", "no:cacheprovider", *[str(REPO / pin) for pin in PINS],
    ]
    # Run from the scratch directory so hypothesis keeps its example
    # database there, not in the repository.
    result = subprocess.run(
        command, cwd=workdir, env=_environment(src),
        capture_output=True, text=True,
    )
    killer = ""
    for line in result.stdout.splitlines():
        if line.startswith("FAILED "):
            # Pytest prints the id relative to the working directory.
            path, _, test = line[len("FAILED "):].split(" - ")[0].partition("::")
            killer = f"{os.path.relpath(workdir / path, REPO)}::{test}"
            break
    if result.returncode not in (0, 1):
        sys.stdout.write(result.stdout[-4000:] + result.stderr[-4000:])
    return result.returncode, killer


def _check_import_path(src: Path, workdir: Path) -> None:
    found = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=workdir, env=_environment(src), capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    if not Path(found).is_relative_to(src):
        raise SystemExit(f"repro imports from {found}, not from the copy {src}")


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutation-smoke-") as scratch:
        root = Path(scratch)
        baseline = root / "baseline"
        baseline.mkdir()
        src = _copy_src(baseline)
        _check_import_path(src, baseline)
        started = time.perf_counter()
        code, killer = _run_pins(src, baseline)
        if code != 0:
            print(f"unmutated copy fails the pins ({killer or f'exit {code}'})")
            return 1
        print(f"unmutated copy passes the pins ({time.perf_counter() - started:.1f} s)")
        for index, mutation in enumerate(MUTATIONS):
            workdir = root / f"m{index:02d}"
            workdir.mkdir()
            src = _copy_src(workdir)
            _apply(src, mutation)
            code, killer = _run_pins(src, workdir)
            if code == 1:
                print(f"killed    {mutation.name}: {killer}")
                if mutation.survives:
                    problems.append(f"{mutation.name}: now killed, drop its survives note")
            elif code == 0:
                reason = mutation.survives or "no reason recorded"
                print(f"SURVIVED  {mutation.name} ({reason})")
                if not mutation.survives:
                    problems.append(f"{mutation.name}: survived the pins")
            else:
                print(f"ERROR     {mutation.name}: pytest exit {code}")
                problems.append(f"{mutation.name}: pytest exit {code}")
            shutil.rmtree(workdir)
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

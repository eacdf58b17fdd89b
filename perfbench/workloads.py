"""The benchmark's workloads: closed loops over cfpower's public functions.

Every workload is one caller that starts the next unit when the previous one
finishes. A run sets up its pool of units in a few timed set-up rounds, then
runs the pool in passes until the timed calls add up to the requested
seconds. Only the calls into cfpower are timed: output checks run between
them. Inputs derive from the workload seed alone.
"""

import contextlib
import json
import os
import sys
import time
import traceback

import numpy as np

from cfpower import allocator, heuristics, pipeline, wmmse
from cfpower.cli import resolve_config
from cfpower.dataset import DatasetFile, DatasetHeader, SampleRecord
from cfpower.mlp import TrainConfig, build_model
from cfpower.network import build_statistics, drop_scenario, place_aps
from cfpower.pilots import assign_pilots
from cfpower.scaling import ScalerParams
from cfpower.se import PowerAllocation, compute_se

from tracing import ALLOC_STRATEGIES, KINDS, alloc_metric

PRESET = "large"
CLUSTER_SIZE = 4
# estimate_se_parameters rejects fewer realizations; WMMSE cost does not
# depend on the count (mean outer steps 40 at 100 vs 45 at 1000)
MIN_N_REAL = 100
TRAIN_SAMPLES = 512
TRAIN_CFG = TrainConfig(epochs=10, drop_epoch=7)
TRAIN_KINDS = ("ddnn", "cdnn")


class Workload:
    """Shared bookkeeping: operation counts, failures and call latencies."""

    name = ""
    # units each set-up round adds to the pool; sized so that the pool runs
    # at least three times within 20 s on one core
    units_per_round = 1
    # (span name, kind tag or None) that a traced run must record
    expected_spans = ()
    min_executions = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cfg = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latency = {}
        # the runner swaps in tracing.installed for traced executions
        self.trace_ctx = contextlib.nullcontext

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
        print(f"[{self.name}] FAIL {what}", file=sys.stderr)

    def attempt(self, what, fn):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:   # the run goes on; the failure is counted
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{what} raised")
            return None

    def timed(self, what, fn, record):
        """One timed call into cfpower; checks stay outside it."""
        with self.trace_ctx():
            t0 = time.perf_counter()
            out = self.attempt(what, fn)
            dt = time.perf_counter() - t0
        if record:
            self.latency.setdefault(what, []).append(dt)
        return out, dt

    def check_alloc(self, what, mu):
        """A feasible, finite (K, L) allocation, re-validated from scratch."""
        mu = np.asarray(mu)
        if mu.shape != (self.cfg.K, self.cfg.L) or not np.all(np.isfinite(mu)):
            self.fail(f"{what}: allocation has a bad shape or values")
            return False
        try:
            PowerAllocation(mu=mu, p_max=self.cfg.p_max_dl)
        except ValueError as exc:
            self.fail(f"{what}: infeasible allocation ({exc})")
            return False
        return True

    def finish(self):
        """Checks that need the whole run; default none."""

    def details(self):
        """Workload-specific figures printed beside the end-to-end metrics."""
        return {}

    def work_per_unit(self):
        """Drops one unit processes (training: rows times epochs)."""
        return 1


def _standin_models(cfg, seed, models_dir):
    """Seeded random-weight models with an identity scaler, written and
    reloaded through the package's model container."""
    os.makedirs(models_dir, exist_ok=True)
    clusters = allocator.cluster_partition(place_aps(cfg, seed), CLUSTER_SIZE)
    groups = {}
    for kind in KINDS:
        if kind == "cdnn":
            units = [(j, tuple(int(a) for a in clusters[j]))
                     for j in range(clusters.shape[0])]
        else:
            units = [(u, (u,)) for u in range(cfg.L)]
        for unit, members in units:
            model = build_model(kind, cfg.K, unit_id=unit, member_aps=members,
                                cluster_size=CLUSTER_SIZE, seed=(seed, unit))
            n_f = model.n_inputs
            model.scaler = ScalerParams(median=np.zeros(n_f),
                                        iqr=np.ones(n_f))
            allocator.save_model(model, os.path.join(
                models_dir, f"{kind}-{unit:03d}{pipeline.MODEL_SUFFIX}"))
        groups[kind] = pipeline.load_models(models_dir, kind)
    return groups


def _drop_beta(cfg, aps, master, namespace, index):
    drop_s = pipeline.sample_seeds(master, namespace, index)[0]
    return build_statistics(cfg, drop_scenario(cfg, drop_s, aps)).beta


class Generate(Workload):
    """cmd_generate at RZF, sum-SE, 1000 realizations: one drop per call."""

    name = "generate-large-rzf"
    units_per_round = 2
    expected_spans = tuple((n, None) for n in (
        "pipeline.cmd_generate", "pipeline.build_sample",
        "network.drop_scenario", "network.build_statistics",
        "pilots.assign_pilots", "estimation.sample_channels",
        "estimation.mmse_estimate", "precoding.compute_precoders",
        "se.estimate_se_parameters", "wmmse.wmmse_solve",
        "wmmse.update_auxiliaries", "wmmse.solve_subproblem",
        "wmmse.utility", "dataset.append"))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.datasets = []      # (master seed, path) of first executions

    def setup(self, rnd):
        self.cfg = resolve_config(PRESET)
        rdir = os.path.join(self.workdir, f"round-{rnd}")
        os.makedirs(rdir)
        # first calls pay for lazy imports and buffers; keep them out of
        # the timed drops
        pipeline.cmd_generate(self.cfg, 1, "sumse", "rzf",
                              os.path.join(rdir, "warmup.cfds"),
                              seed=self.seed, n_real=MIN_N_REAL)
        first = rnd * self.units_per_round
        return [(rdir, j, int(np.random.SeedSequence(
                    (self.seed, 0x6765, j)).generate_state(1)[0]))
                for j in range(first, first + self.units_per_round)]

    def step(self, item, first, record, tag):
        rdir, j, master = item
        path = os.path.join(rdir, f"drop-{j}-{tag}.cfds")
        _, dt = self.timed("generate", lambda: pipeline.cmd_generate(
            self.cfg, 1, "sumse", "rzf", path, seed=master), record)
        if first:
            self.datasets.append((master, path))
        if not os.path.exists(path):
            return dt, None
        with open(path, "rb") as fh:
            return dt, fh.read()

    def finish(self):
        for master, path in self.datasets:
            try:
                ds = DatasetFile.open(path)
                recs = list(ds)
            except Exception as exc:    # a corrupt file is a failed output
                self.fail(f"{path}: cannot reopen ({exc!r})")
                continue
            if len(ds) != 1 or len(recs) != 1 or recs[0].index != 0:
                self.fail(f"{path}: expected one record")
                continue
            if not recs[0].converged:
                self.fail(f"{path}: WMMSE did not converge")
            self.check_alloc(path, recs[0].mu)
        if not self.datasets:
            return
        # the stored digest must match a fresh, independent rebuild
        master, path = self.datasets[0]
        fresh = pipeline.build_sample(self.cfg, place_aps(self.cfg, master),
                                      master, pipeline.TRAIN_NAMESPACE, 0,
                                      "rzf", pipeline.DEFAULT_N_REAL)
        stored = DatasetFile.open(path).read(0).digest
        if stored != bytes.fromhex(fresh.params.digest()):
            self.fail(f"{path}: digest differs from a fresh build_sample")


class _Allocating(Workload):
    """Shared loop of the two allocation workloads."""

    strategies = ()

    def setup(self, rnd):
        self.cfg = resolve_config(PRESET)
        self.models = _standin_models(self.cfg, self.seed, os.path.join(
            self.workdir, f"models-{rnd}"))
        aps = place_aps(self.cfg, self.seed)
        first = rnd * self.units_per_round
        return [self.drop(aps, index)
                for index in range(first, first + self.units_per_round)]

    def _allocators(self, beta, params):
        cfg = self.cfg
        calls = {}
        for objective in ("sumse", "pf"):
            solver = wmmse.SolverConfig(objective=objective)
            calls[f"wmmse-{objective}"] = \
                lambda s=solver: wmmse.wmmse_solve(params, cfg.p_max_dl, s,
                                                   beta=beta)
        for kind in KINDS:
            calls[kind] = lambda k=kind: allocator.predict_allocation(
                self.models[k], beta, cfg)
        calls["heuristic"] = lambda: heuristics.heuristic_allocation(
            beta, cfg.v_exponent, cfg.p_max_dl)
        return calls

    def allocate(self, beta, params, record):
        total = 0.0
        out = {}
        calls = self._allocators(beta, params)
        for strategy in self.strategies:
            result, dt = self.timed(strategy, calls[strategy], record)
            total += dt
            if strategy.startswith("wmmse") and result is not None:
                if not result.converged:
                    self.fail(f"{strategy}: WMMSE did not converge")
                result = result.alloc
            if result is not None and self.check_alloc(strategy, result.mu):
                out[strategy] = result
        return total, out

    def details(self):
        out = {}
        for strategy in self.strategies:
            lat = np.asarray(self.latency.get(strategy, [0.0])) * 1e3
            for q in (50, 90):
                out[alloc_metric(strategy, q)] = (float(np.percentile(lat, q)),
                                                  "ms")
            out[f"alloc_{strategy.replace('-', '_')}_calls"] = (len(lat),
                                                               "count")
        return out


class Allocate(_Allocating):
    """Every strategy on held-out MR drops built during set-up."""

    name = "allocate-large-mr"
    strategies = ALLOC_STRATEGIES
    units_per_round = 9
    # p90 with at least ten calls beyond it
    min_executions = 100
    expected_spans = (
        (("wmmse.wmmse_solve", None), ("wmmse.update_auxiliaries", None),
         ("wmmse.solve_subproblem", None), ("wmmse.utility", None),
         ("heuristics.heuristic_allocation", None))
        + tuple((n, k) for k in KINDS for n in (
            "allocator.predict_allocation", "allocator.model_features",
            "allocator.predict_from_features", "scaling.apply_scaler",
            "mlp.forward")))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.total_se = {s: [] for s in self.strategies}

    def drop(self, aps, index):
        return pipeline.build_sample(self.cfg, aps, self.seed,
                                     pipeline.TEST_NAMESPACE, index, "mr",
                                     MIN_N_REAL)

    def step(self, sample, first, record, tag):
        total, allocs = self.allocate(sample.beta, sample.params, record)
        for strategy, alloc in allocs.items():
            se = compute_se(sample.params, alloc)
            if not np.all(np.isfinite(se)) or np.any(se < 0.0):
                self.fail(f"{strategy}: SE not finite and non-negative")
            elif first:
                self.total_se[strategy].append(float(se.sum()))
        return total, {s: a.mu.tobytes() for s, a in allocs.items()}

    def mean_total_se(self):
        return {s: float(np.mean(v)) for s, v in self.total_se.items()}

    def details(self):
        out = super().details()
        # printed so that a deliberate change of reference.json is a
        # visible hand edit of these values
        for strategy, value in self.mean_total_se().items():
            out[f"mean_total_se_{strategy.replace('-', '_')}"] = (
                value, "bit/s/Hz")
        return out

    def finish(self):
        counts = {len(v) for v in self.total_se.values()}
        if counts != {3 * self.units_per_round}:
            self.fail("not every strategy was scored on every drop")
            return
        means = self.mean_total_se()
        # seed-independent: the sum-SE optimizer beats the closed-form rule
        if means["wmmse-sumse"] <= means["heuristic"]:
            self.fail("WMMSE sum-SE does not beat the heuristic on sum SE")
        ref = load_reference()
        if self.seed != ref["seed"]:
            return
        for strategy, want in ref["mean_total_se"].items():
            got = means[strategy]
            if abs(got - want) > ref["rel_tol"] * abs(want):
                self.fail(f"{strategy}: mean total SE {got!r} differs from "
                          f"the reference {want!r}")


class Infer(_Allocating):
    """Learned allocators and the heuristic on held-out large-scale gains."""

    name = "infer-large"
    strategies = KINDS + ("heuristic",)
    units_per_round = 150
    expected_spans = (("heuristics.heuristic_allocation", None),) + tuple(
        (n, k) for k in KINDS for n in (
            "allocator.predict_allocation", "allocator.model_features",
            "allocator.predict_from_features", "scaling.apply_scaler",
            "mlp.forward"))

    def drop(self, aps, index):
        return _drop_beta(self.cfg, aps, self.seed, pipeline.TEST_NAMESPACE,
                          index)

    def step(self, beta, first, record, tag):
        total, allocs = self.allocate(beta, None, record)
        return total, {s: a.mu.tobytes() for s, a in allocs.items()}


class Train(Workload):
    """cmd_train for ddnn and cdnn on a freshly written training set."""

    name = "train-large"
    expected_spans = tuple((n, None) for n in (
        "pipeline.cmd_train", "dataset.read", "allocator.features_for",
        "scaling.fit_scaler", "scaling.apply_scaler", "mlp.train",
        "mlp.loss_and_grads", "mlp.mse_loss", "mlp.forward",
        "allocator.save_model"))

    def setup(self, rnd):
        """Training set of real drops; mu labels from the heuristic, since
        training cost does not depend on label values."""
        cfg = self.cfg = resolve_config(PRESET)
        master = int(np.random.SeedSequence(
            (self.seed, 0x7472, rnd)).generate_state(1)[0])
        aps = place_aps(cfg, master)
        rdir = os.path.join(self.workdir, f"round-{rnd}")
        os.makedirs(rdir)
        path = os.path.join(rdir, "train.cfds")
        header = DatasetHeader(config=cfg, objective="sumse", precoder="mr",
                               n_samples=TRAIN_SAMPLES,
                               n_real=MIN_N_REAL, master_seed=master)
        ds = DatasetFile.create(path, header)
        for index in range(TRAIN_SAMPLES):
            beta = _drop_beta(cfg, aps, master, pipeline.TRAIN_NAMESPACE,
                              index)
            mu = heuristics.heuristic_allocation(beta, cfg.v_exponent,
                                                 cfg.p_max_dl).mu
            # no SE parameters are built, so the digest field stays zero
            ds.append(SampleRecord(
                index=index, beta=beta,
                pilot_of=assign_pilots(beta, cfg.tau_p).pilot_of, mu=mu,
                digest=bytes(32), converged=True, subproblem_exhausted=False,
                n_outer=0, clamp_events=0, sign_flips=0, final_utility=0.0))
        betas = [_drop_beta(cfg, aps, master, pipeline.TEST_NAMESPACE, i)
                 for i in range(3)]
        return [(rdir, path, betas)]

    def step(self, item, first, record, tag):
        rdir, path, betas = item
        models_dir = os.path.join(rdir, "models")
        total = 0.0
        for kind in TRAIN_KINDS:
            _, dt = self.timed(kind, lambda k=kind: pipeline.cmd_train(
                path, k, models_dir, TRAIN_CFG, cluster_size=CLUSTER_SIZE),
                record)
            total += dt
        if not os.path.isdir(models_dir):
            return total, None
        out = {}
        for fname in sorted(os.listdir(models_dir)):
            with open(os.path.join(models_dir, fname), "rb") as fh:
                out[fname] = fh.read()
        self._check_models(models_dir, betas)
        return total, out

    def _check_models(self, models_dir, betas):
        for fname in sorted(os.listdir(models_dir)):
            if not fname.startswith("loss-"):
                continue
            curve = np.loadtxt(os.path.join(models_dir, fname),
                               delimiter=",", skiprows=1)
            if not np.all(np.isfinite(curve)):
                self.fail(f"{fname}: non-finite loss")
        for kind in TRAIN_KINDS:
            try:
                models = pipeline.load_models(models_dir, kind)
            except Exception as exc:    # unreadable models fail the check
                self.fail(f"{kind}: models do not reload ({exc!r})")
                continue
            for beta in betas:
                alloc = self.attempt(f"trained {kind}", lambda b=beta: (
                    allocator.predict_allocation(models, b, self.cfg)))
                if alloc is not None:
                    self.check_alloc(f"trained {kind}", alloc.mu)

    def work_per_unit(self):
        return TRAIN_SAMPLES * TRAIN_CFG.epochs * len(TRAIN_KINDS)


WORKLOADS = {w.name: w for w in (Generate, Allocate, Infer, Train)}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)

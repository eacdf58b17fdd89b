"""End-to-end commands: dataset generation, training, evaluation, timing.

Seed discipline: every sample's randomness derives from
SeedSequence((master_seed, namespace, index)) where the namespace constant
differs between training data (TRAIN_NAMESPACE) and evaluation drops
(TEST_NAMESPACE), so the two populations can never share a pseudo-random
stream. Each sample splits into separate drop / channel / noise seeds.
AP positions are placed once per config and master seed and shared by all
samples.
"""

import csv
import glob
import logging
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .allocator import (MAGIC as MODEL_MAGIC, check_cover, features_for,
                        labels_for, load_model, model_layout,
                        predict_allocation, save_model, stack_models)
from .scaling import ScalerParams
from .config import NetworkConfig
from .dataset import (MAGIC as DATASET_MAGIC, DatasetFile, DatasetHeader,
                      SampleRecord, read_layout)
from .errors import DataFormatError, SolverDegeneracyError
from .estimation import (ChannelDraw, MmseEstimator, mmse_estimate,
                         sample_channels)
from .heuristics import equal_power, heuristic_allocation
from .mlp import (MODEL_KINDS, TrainConfig, build_model, train,
                  validation_split)
from .network import build_statistics, drop_scenario, place_aps
from .pilots import assign_pilots
from .precoding import compute_precoders
from .scaling import apply_scaler, fit_scaler
from .se import (MAGIC as SE_MAGIC, MomentSums, SEParameters, compute_se,
                 estimate_se_parameters)
from .wmmse import SolverConfig, WmmseResult, wmmse_solve

log = logging.getLogger(__name__)

TRAIN_NAMESPACE = 0x7472    # training-sample seed space
TEST_NAMESPACE = 0x7465     # evaluation-drop seed space

STRATEGIES = ("wmmse-sumse", "wmmse-pf", "heuristic", "equal") + MODEL_KINDS

DEFAULT_N_REAL = 1000
DEFAULT_MAX_DEGENERATE_FRAC = 0.25
DEFAULT_CLUSTER_SIZE = 4
DEFAULT_REPEATS = 5
MODEL_SUFFIX = ".cfmlp"


def sample_seeds(master_seed: int, namespace: int, index: int):
    """Independent (drop, channel, noise) seeds for one sample."""
    ss = np.random.SeedSequence((master_seed, namespace, index))
    drop_s, chan_s, noise_s = ss.generate_state(3, np.uint64)
    return int(drop_s), int(chan_s), int(noise_s)


@dataclass(frozen=True)
class SampleInputs:
    """Everything a power allocator consumes for one drop."""

    beta: np.ndarray
    pilot_of: np.ndarray
    params: SEParameters


def build_sample(cfg: NetworkConfig, ap_positions, master_seed: int,
                 namespace: int, index: int, precoder: str,
                 n_real: int) -> SampleInputs:
    """Drop UEs, estimate channels, and reduce to SE parameters."""
    drop_s, chan_s, noise_s = sample_seeds(master_seed, namespace, index)
    scen = drop_scenario(cfg, drop_s, ap_positions)
    stats = build_statistics(cfg, scen)
    pil = assign_pilots(stats.beta, cfg.tau_p)
    draw = ChannelDraw(stats, n_real, chan_s)
    estimator = MmseEstimator(stats, pil, cfg, n_real, noise_s)
    sums = MomentSums(cfg.K, cfg.L, n_real)
    # each realization tile passes every stage before the next is drawn
    for tile in draw.tiles:
        h = sample_channels(draw, tile)
        batch = mmse_estimate(h, estimator, tile)
        w = compute_precoders(batch, precoder, cfg.p_ul, cfg.noise_power)
        estimate_se_parameters(batch, w, sums)
    params = sums.finish(cfg)
    return SampleInputs(beta=stats.beta, pilot_of=pil.pilot_of, params=params)


def cmd_generate(cfg: NetworkConfig, n_samples: int, objective: str,
                 precoder: str, out_path, seed: Optional[int] = None,
                 n_real: int = DEFAULT_N_REAL,
                 max_degenerate_frac: float = DEFAULT_MAX_DEGENERATE_FRAC
                 ) -> DatasetFile:
    """Generate (or resume) a labeled dataset of optimizer solutions."""
    master = cfg.seed if seed is None else int(seed)
    solver_cfg = SolverConfig(objective=objective)
    header = DatasetHeader(config=cfg, objective=objective, precoder=precoder,
                           n_samples=n_samples, n_real=n_real,
                           master_seed=master)
    if os.path.exists(out_path):
        found, data_start, torn = read_layout(out_path)
        if found != header:
            raise DataFormatError(
                f"{out_path}: existing dataset was generated under a "
                "different configuration")
        if torn:
            # an append interrupted mid-write: the record is regenerated
            log.warning("cutting a %d-byte partial record from %s", torn,
                        out_path)
            os.truncate(out_path, os.path.getsize(out_path) - torn)
        ds = DatasetFile(out_path, found, data_start)
        start = len(ds)
        log.info("resuming %s at sample %d", out_path, start)
    else:
        ds = DatasetFile.create(out_path, header)
        start = 0
    aps = place_aps(cfg, master)
    n_failed = 0
    for index in range(start, n_samples):
        sample = build_sample(cfg, aps, master, TRAIN_NAMESPACE, index,
                              precoder, n_real)
        result = wmmse_solve(sample.params, cfg.p_max_dl, solver_cfg)
        if not result.converged:
            n_failed += 1
        rec = SampleRecord(index=index, beta=sample.beta,
                           pilot_of=sample.pilot_of, mu=result.alloc.mu,
                           digest=bytes.fromhex(sample.params.digest()),
                           converged=result.converged,
                           subproblem_exhausted=result.subproblem_exhausted > 0,
                           n_outer=result.n_outer,
                           clamp_events=result.clamp_events,
                           sign_flips=result.sign_flips,
                           final_utility=result.utility)
        ds.append(rec)
        if (index + 1) % 100 == 0:
            log.info("generated %d / %d samples", index + 1, n_samples)
    n_new = n_samples - start
    if n_new > 0 and n_failed / n_new > max_degenerate_frac:
        raise SolverDegeneracyError(
            f"{n_failed} of {n_new} optimizer runs failed to converge")
    return ds


def _model_path(out_dir, kind, unit):
    return os.path.join(out_dir, f"{kind}-{unit:03d}{MODEL_SUFFIX}")


def load_models(models_dir, kind: str):
    """All models of a kind in a directory, in file-name order (unit order
    for the files `cmd_train` writes), as one stacked `ModelGroup`.

    Each file is read into one buffer, copied into the stacks and released
    before the next file is read, so the group holds the only copy of the
    weights and a load peaks near the group's size plus one file. A file
    of another kind, a model without a scaler or a layer plan other than
    the first file's raises DataFormatError naming the file.
    """
    pattern = os.path.join(models_dir, f"{kind}-[0-9]*{MODEL_SUFFIX}")
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise DataFormatError(f"no {kind} models under {models_dir}")
    read = []

    def checked(path):
        read.append(path)
        model = load_model(path)
        if model.kind != kind:
            raise DataFormatError(
                f"{path}: holds a {model.kind} model, not {kind}")
        return model

    try:
        return stack_models(map(checked, paths), len(paths))
    except ValueError as exc:
        raise DataFormatError(f"{read[-1]}: {exc}") from exc


def _group_for(models_dir, kind: str, cfg: NetworkConfig):
    """`load_models`, checked to cover the network's APs exactly once."""
    group = load_models(models_dir, kind)
    try:
        check_cover(group, cfg.L)
    except ValueError as exc:
        raise DataFormatError(f"{models_dir}: {kind} {exc}") from exc
    return group


def cmd_train(dataset_path, kind: str, out_dir,
              train_cfg: Optional[TrainConfig] = None,
              cluster_size: int = DEFAULT_CLUSTER_SIZE):
    """Fit one model per AP (or per cluster) from a generated dataset.

    Returns the list of written model paths. Loss curves land next to the
    models as loss-<model>.csv with columns epoch, train_mse, val_mse:
    train_mse is the epoch's row-weighted mean minibatch loss (see
    mlp.train), val_mse the end-of-epoch MSE on the held-out rows.
    """
    if train_cfg is None:
        train_cfg = TrainConfig()
    ds = DatasetFile.open(dataset_path)
    if len(ds) == 0:
        raise DataFormatError(f"{dataset_path}: dataset holds no samples")
    cfg = ds.header.config
    records = list(ds)
    betas = np.stack([r.beta for r in records])
    mus = np.stack([r.mu for r in records])
    n = betas.shape[0]

    layout = model_layout(kind, cfg, ds.header.master_seed, cluster_size)
    feats = np.stack([features_for(kind, betas[i], cfg, layout)
                      for i in range(n)])
    labels = np.stack([labels_for(mus[i], layout) for i in range(n)])

    # one seeded split shared by every unit's model
    train_idx, val_idx = validation_split(n, train_cfg.validation_fraction,
                                          train_cfg.seed)

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for unit, members in enumerate(layout):
        seed = np.random.SeedSequence(
            (train_cfg.seed, 0x6D6C, unit)).generate_state(1)[0]
        model = build_model(kind, cfg.K, unit_id=unit, member_aps=members,
                            cluster_size=cluster_size, seed=int(seed))
        X, Y = feats[:, unit, :], labels[:, unit, :]
        model.scaler = fit_scaler(X[train_idx])
        Xs = apply_scaler(model.scaler, X)
        val = (Xs[val_idx], Y[val_idx]) if val_idx.size else None
        result = train(model, Xs[train_idx], Y[train_idx], train_cfg, val=val)
        path = _model_path(out_dir, kind, unit)
        save_model(model, path)
        paths.append(path)
        loss_path = os.path.join(
            out_dir, f"loss-{kind}-{unit:03d}.csv")
        with open(loss_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_mse", "val_mse"])
            for ep in range(train_cfg.epochs):
                writer.writerow([ep, repr(float(result.train_loss[ep])),
                                 repr(float(result.val_loss[ep]))])
        log.info("trained %s (final val mse %.3g)", path,
                 result.val_loss[-1])
    return paths


# `_solver_summary` entries that `EvalReport.write_csvs` puts in summary.csv
_SOLVER_COLUMNS = ("converged", "n_outer_p50", "n_outer_p90",
                   "subproblem_exhausted")


@dataclass
class EvalReport:
    """Per-strategy spectral efficiencies over the evaluation drops."""

    strategies: list
    se: dict                  # strategy -> (n_drops, K)
    alloc_seconds: dict       # strategy -> mean seconds per allocation
    digests: list             # per-drop SE parameter digests
    solver: dict              # wmmse strategy -> `_solver_summary` of its
                              # solves, one per drop

    def mean_total_se(self, strategy) -> float:
        return float(self.se[strategy].sum(axis=1).mean())

    def mean_min_se(self, strategy) -> float:
        return float(self.se[strategy].min(axis=1).mean())

    def percentile_se(self, strategy, q) -> float:
        return float(np.percentile(self.se[strategy].reshape(-1), q))

    def cdf(self, strategy):
        values = np.sort(self.se[strategy].reshape(-1))
        cum = np.arange(1, values.size + 1) / values.size
        return values, cum

    def write_csvs(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        per_ue = os.path.join(out_dir, "per_ue_se.csv")
        with open(per_ue, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["drop", "strategy", "ue", "se"])
            for strat in self.strategies:
                se = self.se[strat]
                for d in range(se.shape[0]):
                    for k in range(se.shape[1]):
                        writer.writerow([d, strat, k, repr(float(se[d, k]))])
        cdf_path = os.path.join(out_dir, "cdf.csv")
        with open(cdf_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "se", "cdf"])
            for strat in self.strategies:
                values, cum = self.cdf(strat)
                for se_val, c in zip(values, cum):
                    writer.writerow([strat, repr(float(se_val)),
                                     repr(float(c))])
        summary = os.path.join(out_dir, "summary.csv")
        with open(summary, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "mean_total_se", "mean_min_se",
                             "p10_se", "mean_alloc_seconds"]
                            + list(_SOLVER_COLUMNS))
            for strat in self.strategies:
                # the solver columns stay empty for strategies without one
                solver = self.solver.get(strat, {})
                writer.writerow([
                    strat,
                    repr(self.mean_total_se(strat)),
                    repr(self.mean_min_se(strat)),
                    repr(self.percentile_se(strat, 10.0)),
                    repr(float(self.alloc_seconds[strat])),
                ] + [repr(solver[c]) if c in solver else ""
                     for c in _SOLVER_COLUMNS])
        return [per_ue, cdf_path, summary]


def _distinct(strategies):
    """The strategies as a list; a name given twice raises ValueError."""
    strategies = list(strategies)
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"strategy named twice in {strategies}")
    return strategies


def _allocator_for(strategy, cfg, models):
    """Returns a callable sample -> PowerAllocation for one strategy; a
    WMMSE strategy's callable returns the whole `WmmseResult`."""
    if strategy in ("wmmse-sumse", "wmmse-pf"):
        solver = SolverConfig(objective=strategy[len("wmmse-"):])
        return lambda s: wmmse_solve(s.params, cfg.p_max_dl, solver)
    if strategy == "heuristic":
        return lambda s: heuristic_allocation(s.beta, cfg.v_exponent,
                                              cfg.p_max_dl)
    if strategy == "equal":
        return lambda s: equal_power(cfg.K, cfg.L, cfg.p_max_dl)
    if strategy in MODEL_KINDS:
        group = models[strategy]
        return lambda s: predict_allocation(group, s.beta, cfg)
    raise ValueError(f"unknown strategy {strategy!r}")


def cmd_evaluate(cfg: NetworkConfig, strategies, n_drops: int, precoder: str,
                 out_dir=None, seed: Optional[int] = None,
                 n_real: int = DEFAULT_N_REAL,
                 models_dir=None) -> EvalReport:
    """Evaluate strategies on identical held-out drops and SE parameters."""
    master = cfg.seed if seed is None else int(seed)
    strategies = _distinct(strategies)
    models = {}
    for strat in strategies:
        if strat in MODEL_KINDS:
            if models_dir is None:
                raise DataFormatError(
                    f"strategy {strat} needs a models directory")
            models[strat] = _group_for(models_dir, strat, cfg)
    allocators = {s: _allocator_for(s, cfg, models) for s in strategies}
    aps = place_aps(cfg, master)
    se = {s: np.empty((n_drops, cfg.K)) for s in strategies}
    seconds = {s: 0.0 for s in strategies}
    solves = {s: [] for s in strategies}
    digests = []
    for drop in range(n_drops):
        sample = build_sample(cfg, aps, master, TEST_NAMESPACE, drop,
                              precoder, n_real)
        # every strategy scores against the same parameter estimate: its
        # a and B are read-only, so a strategy cannot write into them
        digests.append(sample.params.digest())
        for strat in strategies:
            t0 = time.perf_counter()
            alloc = allocators[strat](sample)
            seconds[strat] += time.perf_counter() - t0
            if isinstance(alloc, WmmseResult):
                solves[strat].append(alloc)
                alloc = alloc.alloc
            se[strat][drop] = compute_se(sample.params, alloc)
        if (drop + 1) % 50 == 0:
            log.info("evaluated %d / %d drops", drop + 1, n_drops)
    report = EvalReport(strategies=strategies, se=se,
                        alloc_seconds={s: seconds[s] / max(n_drops, 1)
                                       for s in strategies},
                        digests=digests,
                        solver={s: _solver_summary(runs)
                                for s, runs in solves.items() if runs})
    if out_dir is not None:
        report.write_csvs(out_dir)
    return report


def _solver_summary(records):
    """WMMSE diagnostics of dataset records or of `WmmseResult`s,
    summarised. A record flags a drop with any exhausted subproblem, where
    a result counts the subproblems."""
    if not records:
        return None
    n_outer = np.array([r.n_outer for r in records])
    return {"converged": sum(bool(r.converged) for r in records),
            "converged_frac": float(np.mean([r.converged for r in records])),
            "n_outer_p50": float(np.percentile(n_outer, 50)),
            "n_outer_p90": float(np.percentile(n_outer, 90)),
            "n_outer_max": int(n_outer.max()),
            "subproblem_exhausted": sum(r.subproblem_exhausted
                                        for r in records),
            "clamp_events": sum(r.clamp_events for r in records),
            "sign_flips": sum(r.sign_flips for r in records)}


def cmd_inspect(path) -> dict:
    """Summarize any package container (dataset, model, SE parameters)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == DATASET_MAGIC:
        ds = DatasetFile.open(path)
        h = ds.header
        return {"type": "dataset", "objective": h.objective,
                "precoder": h.precoder, "n_samples_target": h.n_samples,
                "n_samples_present": len(ds), "n_real": h.n_real,
                "master_seed": h.master_seed, "config": h.config.to_dict(),
                "solver": _solver_summary(list(ds))}
    if magic == MODEL_MAGIC:
        model = load_model(path)
        return {"type": "model", "kind": model.kind,
                "unit_id": model.unit_id,
                "member_aps": list(model.member_aps),
                "n_parameters": model.n_parameters(),
                "layer_sizes": [model.n_inputs]
                               + [l.W.shape[0] for l in model.layers],
                "activations": [l.activation for l in model.layers],
                "has_scaler": model.scaler is not None}
    if magic == SE_MAGIC:
        params = SEParameters.load(path)
        return {"type": "se-parameters", "K": params.K, "L": params.L,
                "n_real": params.n_real, "prelog": params.prelog,
                "sigma2": params.sigma2, "digest": params.digest()}
    raise DataFormatError(f"{path}: unrecognized container magic {magic!r}")


def _bench_models(cfg, kind, cluster_size, models_dir, seed):
    """The group `cmd_bench` times: trained models when available, seeded
    random-weight stand-ins else, stacked as `load_models` stacks them."""
    if models_dir is not None:
        return _group_for(models_dir, kind, cfg)
    models = []
    for unit, members in enumerate(
            model_layout(kind, cfg, seed, cluster_size)):
        model = build_model(kind, cfg.K, unit_id=unit, member_aps=members,
                            cluster_size=cluster_size, seed=(seed, unit))
        n_f = model.n_inputs
        model.scaler = ScalerParams(median=np.zeros(n_f), iqr=np.ones(n_f))
        models.append(model)
    return stack_models(models)


def cmd_bench(cfg: NetworkConfig, strategies,
              n_repeats: int = DEFAULT_REPEATS, out_path=None,
              seed: Optional[int] = None, n_real: int = DEFAULT_N_REAL,
              models_dir=None,
              cluster_size: int = DEFAULT_CLUSTER_SIZE) -> dict:
    """Wall-clock per allocation on pre-generated inputs.

    Returns {strategy: {column: seconds}} with columns
    sumse-mr / sumse-rzf / pf-mr / pf-rzf. Every strategy runs the
    allocator `cmd_evaluate` runs (`wmmse` maps to the column's objective),
    so learned timing covers building features from beta, scaling, forward
    passes and post-processing. The noop strategy measures harness overhead.
    """
    master = cfg.seed if seed is None else int(seed)
    strategies = _distinct(strategies)
    models = {s: _bench_models(cfg, s, cluster_size, models_dir, master)
              for s in strategies if s in MODEL_KINDS}
    columns = [("sumse", "mr"), ("sumse", "rzf"), ("pf", "mr"), ("pf", "rzf")]

    def allocator(strat, objective):
        if strat == "noop":
            return lambda s: None
        if strat == "wmmse":
            return _allocator_for(f"wmmse-{objective}", cfg, models)
        if strat.startswith("wmmse-"):   # bench names the objective per column
            raise ValueError(f"unknown bench strategy {strat!r}")
        return _allocator_for(strat, cfg, models)

    tasks = {(s, o): allocator(s, o)
             for s in strategies for o in ("sumse", "pf")}
    aps = place_aps(cfg, master)
    samples = {p: build_sample(cfg, aps, master, TEST_NAMESPACE, 0, p, n_real)
               for p in ("mr", "rzf")}
    results = {}
    for strat in strategies:
        row = {}
        for objective, precoder in columns:
            task, sample = tasks[strat, objective], samples[precoder]
            task(sample)   # warm-up, outside the timed window
            t0 = time.perf_counter()
            for _ in range(n_repeats):
                task(sample)
            row[f"{objective}-{precoder}"] = \
                (time.perf_counter() - t0) / n_repeats
        results[strat] = row
    if out_path is not None:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy"]
                            + [f"{o}-{p}" for o, p in columns])
            for strat in strategies:
                writer.writerow([strat] + [repr(results[strat][f"{o}-{p}"])
                                           for o, p in columns])
    return results

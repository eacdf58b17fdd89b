"""End-to-end command tests: generation, resume, training, evaluation, CLI.

Everything runs on the small desk preset with a reduced realization count
so the whole file stays fast. Determinism checks compare bytes on disk.
"""

import csv
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from cfpower import pipeline, wmmse
from cfpower.allocator import load_model, model_layout, save_model
from cfpower.cli import main, resolve_config
from cfpower.config import load_config
from cfpower.dataset import DatasetFile, DatasetHeader, record_size
from cfpower.errors import DataFormatError, SolverDegeneracyError
from cfpower.mlp import TrainConfig, build_model, train, validation_split
from cfpower.network import place_aps
from cfpower.pipeline import (TEST_NAMESPACE, TRAIN_NAMESPACE, _bench_models,
                              build_sample, cmd_bench, cmd_evaluate,
                              cmd_generate, cmd_inspect, cmd_train,
                              load_models, sample_seeds)
from cfpower.scaling import ScalerParams, fit_scaler
from cfpower.se import compute_se
from cfpower.wmmse import SolverConfig, wmmse_solve

N_REAL = 120     # enough for the estimator guard, cheap for tests
FAST_TRAIN = TrainConfig(epochs=2, batch_size=8, seed=0)


def gen(cfg, path, n=4, objective="sumse", **kw):
    return cmd_generate(cfg, n, objective, "rzf", path, n_real=N_REAL, **kw)


def test_sample_seeds_are_stable_and_disjoint():
    a = sample_seeds(7, TRAIN_NAMESPACE, 3)
    assert a == sample_seeds(7, TRAIN_NAMESPACE, 3)
    assert len(set(a)) == 3
    assert a != sample_seeds(7, TEST_NAMESPACE, 3)
    assert a != sample_seeds(7, TRAIN_NAMESPACE, 4)
    assert a != sample_seeds(8, TRAIN_NAMESPACE, 3)


def test_train_and_test_populations_differ(desk_cfg):
    aps = place_aps(desk_cfg, desk_cfg.seed)
    train = build_sample(desk_cfg, aps, desk_cfg.seed, TRAIN_NAMESPACE, 0,
                         "rzf", N_REAL)
    test = build_sample(desk_cfg, aps, desk_cfg.seed, TEST_NAMESPACE, 0,
                        "rzf", N_REAL)
    assert not np.array_equal(train.beta, test.beta)


def peak_of_build_sample(cfg, precoder, n_real):
    """tracemalloc peak of one build_sample, over its h.nbytes.

    A small drop runs first, untraced, so that the modules the first drop
    of a process imports (numpy.random's seeding helpers, 0.7 MB that stays)
    do not count: run alone, without it, the one-tile drop read 9.28 x.
    """
    aps = place_aps(cfg, cfg.seed)
    build_sample(cfg, aps, cfg.seed, TRAIN_NAMESPACE, 0, precoder, 100)
    h_bytes = 16 * n_real * cfg.K * cfg.L * cfg.N
    tracemalloc.start()
    try:
        build_sample(cfg, aps, cfg.seed, TRAIN_NAMESPACE, 0, precoder,
                     n_real)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / h_bytes


def test_build_sample_front_end_stays_tiled_in_memory(large_cfg):
    # a guard that no (n_real, K, L, N) array comes back: besides the real
    # halves of the two random draws (0.75 x h.nbytes), only tile-sized
    # buffers exist. Untiled, one such drop peaked at 5.5 x h.nbytes; with
    # h and h_hat in full, at 2.8 x; streamed with a tile buffer per stage,
    # at 1.56 x; with one buffer per draw, at 1.49 x
    ratio = peak_of_build_sample(large_cfg, "rzf", 1000)
    assert ratio <= 1.52, f"peak {ratio:.2f} x h.nbytes"


def test_single_tile_drop_peaks_no_higher_than_untiled(large_cfg):
    # allocate's 100-realization MR drop is one tile. It peaks at 8.97 x
    # h.nbytes (18.37 MB), as it did before the front end streamed tiles; a
    # draw that kept its buffers into the reduction took it to 12.05 x
    ratio = peak_of_build_sample(large_cfg, "mr", 100)
    assert ratio <= 9.0, f"peak {ratio:.2f} x h.nbytes"


def test_generate_is_byte_deterministic(tmp_path, desk_cfg):
    a, b = tmp_path / "a.cfds", tmp_path / "b.cfds"
    gen(desk_cfg, a)
    gen(desk_cfg, b)
    assert a.read_bytes() == b.read_bytes()
    ds = DatasetFile.open(a)
    assert len(ds) == 4
    recs = list(ds)
    assert all(r.converged for r in recs)
    assert all(np.isfinite(r.final_utility) for r in recs)


def test_generate_rerun_is_a_noop(tmp_path, desk_cfg):
    path = tmp_path / "d.cfds"
    gen(desk_cfg, path, n=3)
    blob = path.read_bytes()
    gen(desk_cfg, path, n=3)     # complete file: nothing to add
    assert path.read_bytes() == blob


def test_generate_regrows_truncated_file(tmp_path, desk_cfg):
    full = tmp_path / "full.cfds"
    gen(desk_cfg, full, n=5)
    blob = full.read_bytes()
    cut = tmp_path / "cut.cfds"
    cut.write_bytes(blob[:len(blob) - 2 * record_size(desk_cfg.K,
                                                      desk_cfg.L)])
    assert len(DatasetFile.open(cut)) == 3
    gen(desk_cfg, cut, n=5)
    assert cut.read_bytes() == blob


def test_generate_cuts_a_torn_record_on_resume(tmp_path, desk_cfg, caplog):
    # a crash inside an append leaves 1 .. size-1 bytes of the last record
    full = tmp_path / "full.cfds"
    gen(desk_cfg, full, n=2)
    blob = full.read_bytes()
    size = record_size(desk_cfg.K, desk_cfg.L)
    cut = tmp_path / "cut.cfds"
    caplog.set_level("WARNING", logger=pipeline.log.name)
    for torn in range(1, size):
        cut.write_bytes(blob[:len(blob) - size + torn])
        with pytest.raises(DataFormatError, match="partial"):
            DatasetFile.open(cut)
        gen(desk_cfg, cut, n=2)
        assert cut.read_bytes() == blob, f"torn record of {torn} bytes"
    cuts = [r for r in caplog.records if "partial record" in r.getMessage()]
    assert len(cuts) == size - 1


def test_generate_rejects_mismatched_resume(tmp_path, desk_cfg):
    path = tmp_path / "d.cfds"
    gen(desk_cfg, path, n=2)
    with pytest.raises(DataFormatError, match="different configuration"):
        gen(desk_cfg, path, n=2, objective="pf")
    # the target sample count is part of the dataset's identity too
    with pytest.raises(DataFormatError, match="different configuration"):
        gen(desk_cfg, path, n=4)


def test_generate_degeneracy_guard(tmp_path, desk_cfg, monkeypatch):
    # one outer iteration with an unreachable tolerance never converges
    monkeypatch.setattr(wmmse, "_MAX_OUTER", 1)
    monkeypatch.setattr(wmmse, "_EPS_OUTER", 1e-30)
    with pytest.raises(SolverDegeneracyError):
        gen(desk_cfg, tmp_path / "d.cfds", n=2)


def test_exhausted_subproblems_are_counted_and_reported(tmp_path, desk_cfg,
                                                        monkeypatch):
    # two ADMM iterations never meet the residual thresholds, so every
    # subproblem is exhausted; three outer steps keep the solves short
    monkeypatch.setattr(wmmse, "_MAX_ADMM_ITERS", 2)
    monkeypatch.setattr(wmmse, "_MAX_OUTER", 3)
    solves = []

    def recording(*args, **kwargs):
        solves.append(wmmse_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(pipeline, "wmmse_solve", recording)
    path = tmp_path / "d.cfds"
    gen(desk_cfg, path, n=3, max_degenerate_frac=1.0)
    assert len(solves) == 3
    assert all(r.subproblem_exhausted == r.n_outer > 0 for r in solves)
    records = list(DatasetFile.open(path))
    assert [r.subproblem_exhausted for r in records] == [True] * 3
    assert cmd_inspect(path)["solver"]["subproblem_exhausted"] == 3

    solves.clear()
    strategies = ["wmmse-sumse", "wmmse-pf"]
    cmd_evaluate(desk_cfg, strategies, 2, "rzf", out_dir=tmp_path / "rep",
                 n_real=N_REAL)
    with open(tmp_path / "rep" / "summary.csv", newline="") as fh:
        rows = {r["strategy"]: r for r in csv.DictReader(fh)}
    # each drop runs the strategies in the order given
    for i, strat in enumerate(strategies):
        runs = solves[i::len(strategies)]
        assert len(runs) == 2
        assert all(r.subproblem_exhausted == r.n_outer > 0 for r in runs)
        assert rows[strat]["subproblem_exhausted"] == \
            repr(sum(r.subproblem_exhausted for r in runs))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory, desk_cfg):
    path = tmp_path_factory.mktemp("ds") / "train.cfds"
    gen(desk_cfg, path, n=12)
    return path


def test_train_writes_models_and_curves(tmp_path, desk_cfg, small_dataset):
    out = tmp_path / "models"
    paths = cmd_train(small_dataset, "ddnn", out, FAST_TRAIN)
    assert len(paths) == desk_cfg.L
    models = load_models(out, "ddnn")
    assert [m.unit_id for m in models] == list(range(desk_cfg.L))
    for m in models:
        assert m.kind == "ddnn"
        assert m.scaler is not None
        assert m.n_inputs == desk_cfg.K
        assert m.layers[-1].W.shape[0] == desk_cfg.K + 1
    for unit in range(desk_cfg.L):
        with open(out / f"loss-ddnn-{unit:03d}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_mse", "val_mse"]
        assert len(rows) - 1 == FAST_TRAIN.epochs
        values = [(float(r[1]), float(r[2])) for r in rows[1:]]
        assert all(np.isfinite(v) for pair in values for v in pair)


def test_train_is_reproducible(tmp_path, small_dataset):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    paths_a = cmd_train(small_dataset, "ddnn", out_a, FAST_TRAIN)
    paths_b = cmd_train(small_dataset, "ddnn", out_b, FAST_TRAIN)
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_train_holds_out_the_split_rows_only(tmp_path, desk_cfg,
                                             small_dataset, monkeypatch):
    seen = []      # per unit: (scaler rows, training rows, labels, val)

    def recording_fit(X):
        seen.append([np.array(X)])
        return fit_scaler(X)

    def recording_train(model, X, Y, cfg, val=None):
        seen[-1] += [np.array(X), np.array(Y), val]
        return train(model, X, Y, cfg, val=val)

    monkeypatch.setattr(pipeline, "fit_scaler", recording_fit)
    monkeypatch.setattr(pipeline, "train", recording_train)
    n = len(DatasetFile.open(small_dataset))

    # --val-fraction 0: every row reaches the scaler and training
    out = tmp_path / "all"
    no_val = dataclasses.replace(FAST_TRAIN, validation_fraction=0.0)
    paths = cmd_train(small_dataset, "ddnn", out, no_val)
    assert len(paths) == desk_cfg.L and all(os.path.isfile(p) for p in paths)
    order, none_held = validation_split(n, 0.0, FAST_TRAIN.seed)
    assert none_held.size == 0 and sorted(order) == list(range(n))
    assert len(seen) == desk_cfg.L
    full = []       # per unit: raw features and labels in dataset row order
    for unit, (X_fit, X, Y, val) in enumerate(seen):
        assert X_fit.shape[0] == X.shape[0] == n and val is None
        with open(out / f"loss-ddnn-{unit:03d}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(np.isnan(float(r["val_mse"])) for r in rows)
        assert all(np.isfinite(float(r["train_mse"])) for r in rows)
        X_raw, Y_raw = np.empty_like(X_fit), np.empty_like(Y)
        X_raw[order], Y_raw[order] = X_fit, Y
        full.append((X_raw, Y_raw))

    # a held-out share: exactly validation_split's rows, never scaled from
    seen.clear()
    assert FAST_TRAIN.validation_fraction > 0.0
    cmd_train(small_dataset, "ddnn", tmp_path / "split", FAST_TRAIN)
    rows, held = validation_split(n, FAST_TRAIN.validation_fraction,
                                  FAST_TRAIN.seed)
    assert held.size >= 1 and sorted(np.r_[rows, held]) == list(range(n))
    for (X_fit, X, Y, (X_val, Y_val)), (X_raw, Y_raw) in zip(seen, full):
        assert np.array_equal(X_fit, X_raw[rows])
        assert np.array_equal(Y, Y_raw[rows])
        assert np.array_equal(Y_val, Y_raw[held])
        assert X_val.shape[0] == held.size


def test_train_clustered_partition(tmp_path, desk_cfg, small_dataset):
    out = tmp_path / "models"
    paths = cmd_train(small_dataset, "cdnn", out, FAST_TRAIN, cluster_size=2)
    assert len(paths) == desk_cfg.L // 2
    models = load_models(out, "cdnn")
    covered = sorted(ap for m in models for ap in m.member_aps)
    assert covered == list(range(desk_cfg.L))
    with pytest.raises(ValueError, match="divide"):
        cmd_train(small_dataset, "cdnn", tmp_path / "x", FAST_TRAIN,
                  cluster_size=3)
    with pytest.raises(ValueError, match="kind"):
        cmd_train(small_dataset, "resnet", tmp_path / "y", FAST_TRAIN)


@pytest.mark.parametrize("kind", ["ddnn", "cdnn"])
def test_train_and_bench_share_the_layout(tmp_path, desk_cfg, small_dataset,
                                          kind):
    cmd_train(small_dataset, kind, tmp_path, FAST_TRAIN, cluster_size=2)
    trained = load_models(tmp_path, kind)
    seed = DatasetFile.open(small_dataset).header.master_seed
    stand_ins = _bench_models(desk_cfg, kind, 2, None, seed)
    assert [m.unit_id for m in trained] == [m.unit_id for m in stand_ins]
    assert [m.member_aps for m in trained] == \
        [m.member_aps for m in stand_ins]


def test_load_models_keeps_kinds_apart(tmp_path, desk_cfg, small_dataset):
    # ddnn-si file names start with "ddnn-" too
    out = tmp_path / "models"
    cmd_train(small_dataset, "ddnn", out, FAST_TRAIN)
    cmd_train(small_dataset, "ddnn-si", out, FAST_TRAIN)
    for kind in ("ddnn", "ddnn-si"):
        assert [m.kind for m in load_models(out, kind)] == [kind] * desk_cfg.L


def test_load_models_checks_the_header_kind(tmp_path, small_dataset, capsys):
    paths = cmd_train(small_dataset, "cdnn", tmp_path / "cdnn", FAST_TRAIN,
                      cluster_size=2)
    renamed = tmp_path / "renamed"
    renamed.mkdir()
    for unit, path in enumerate(paths):
        with open(path, "rb") as fh:
            (renamed / f"ddnn-{unit:03d}.cfmlp").write_bytes(fh.read())
    with pytest.raises(DataFormatError, match="ddnn-000.cfmlp.*cdnn"):
        load_models(renamed, "ddnn")
    code = main(["evaluate", "--config", "desk", "--samples", "1",
                 "--strategies", "ddnn", "--realizations", str(N_REAL),
                 "--models", str(renamed), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "cdnn" in capsys.readouterr().err

    model = load_model(paths[0])
    model.kind = "resnet"
    save_model(model, renamed / "resnet.cfmlp")
    assert main(["inspect", str(renamed / "resnet.cfmlp")]) == 2
    assert "resnet" in capsys.readouterr().err


def test_load_models_checks_output_widths(tmp_path, desk_cfg, small_dataset,
                                          capsys):
    # model 0 keeps its 2 member APs but emits one AP's K+1 outputs
    out = tmp_path / "cdnn"
    paths = cmd_train(small_dataset, "cdnn", out, FAST_TRAIN, cluster_size=2)
    model = load_model(paths[0])
    last, n_out = model.layers[-1], desk_cfg.K + 1
    model.layers[-1] = dataclasses.replace(last, W=last.W[:n_out],
                                           b=last.b[:n_out])
    save_model(model, paths[0])
    with pytest.raises(DataFormatError, match="cdnn-000.cfmlp.*layer sizes"):
        load_models(out, "cdnn")
    code = main(["evaluate", "--config", "desk", "--samples", "1",
                 "--strategies", "cdnn", "--realizations", str(N_REAL),
                 "--models", str(out), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "layer sizes" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["ddnn-si", "cdnn"])
def test_load_models_holds_one_copy_of_the_weights(tmp_path, small_dataset,
                                                   kind):
    paths = cmd_train(small_dataset, kind, tmp_path, FAST_TRAIN,
                      cluster_size=2)
    group = load_models(tmp_path, kind)
    assert len(group) == len(paths)
    for i, (model, path) in enumerate(zip(group, paths)):
        for stack, layer in zip(group.layers, model.layers):
            assert stack.W.flags.c_contiguous
            assert np.shares_memory(layer.W, stack.W)
            assert np.shares_memory(layer.b, stack.b)
            assert not (layer.W.flags.owndata or layer.b.flags.owndata)
        assert np.shares_memory(model.scaler.median, group.scaler.median)
        assert np.shares_memory(model.scaler.iqr, group.scaler.iqr)
        # the views hold the file's weights to the bit
        save_model(model, tmp_path / "again.cfmlp")
        with open(path, "rb") as fh:
            assert (tmp_path / "again.cfmlp").read_bytes() == fh.read()


def test_load_models_peaks_at_the_group_plus_one_file(tmp_path, large_cfg):
    # each file is parsed into views of its own bytes and released before
    # the next one is read: no second copy, no previous model kept alive
    members = model_layout("cdnn", large_cfg, large_cfg.seed, 4)
    for unit, aps in enumerate(members):
        model = build_model("cdnn", large_cfg.K, unit_id=unit,
                            member_aps=tuple(int(a) for a in aps),
                            cluster_size=4, seed=unit)
        model.scaler = ScalerParams(median=np.zeros(model.n_inputs),
                                    iqr=np.ones(model.n_inputs))
        save_model(model, tmp_path / f"cdnn-{unit:03d}.cfmlp")
    del model
    largest = max(p.stat().st_size for p in tmp_path.iterdir())
    tracemalloc.start()
    try:
        group = load_models(tmp_path, "cdnn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(l.W.nbytes + l.b.nbytes for l in group.layers) \
        + group.scaler.median.nbytes + group.scaler.iqr.nbytes
    assert len(group) == len(members) > 2
    assert peak <= held + largest + 2 ** 18, \
        f"peak {peak / 2 ** 20:.2f} MiB for a {held / 2 ** 20:.2f} MiB group"


def test_load_models_rejects_groups_that_do_not_stack(tmp_path, desk_cfg,
                                                      small_dataset):
    out = tmp_path / "models"
    paths = cmd_train(small_dataset, "ddnn", out, FAST_TRAIN)
    model = load_model(paths[1])
    model.scaler = None
    save_model(model, paths[1])
    with pytest.raises(DataFormatError, match="ddnn-001.cfmlp.*scaler"):
        load_models(out, "ddnn")
    # a ddnn model trained at another K has other layer sizes
    cmd_train(small_dataset, "ddnn", out, FAST_TRAIN)
    wider = build_model("ddnn", desk_cfg.K + 1, unit_id=3, seed=3)
    wider.scaler = ScalerParams(median=np.zeros(desk_cfg.K + 1),
                                iqr=np.ones(desk_cfg.K + 1))
    save_model(wider, paths[3])
    with pytest.raises(DataFormatError, match="ddnn-003.cfmlp.*layer plan"):
        load_models(out, "ddnn")


def test_incomplete_group_is_a_data_error(tmp_path, desk_cfg, small_dataset,
                                          capsys):
    out = tmp_path / "models"
    paths = cmd_train(small_dataset, "ddnn", out, FAST_TRAIN)
    os.remove(paths[-1])     # ddnn-000..002 remain of the desk's 4 APs
    code = main(["evaluate", "--config", "desk", "--samples", "1",
                 "--strategies", "ddnn", "--realizations", str(N_REAL),
                 "--models", str(out), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(out) in err and "cover" in err
    with pytest.raises(DataFormatError, match="cover"):
        cmd_bench(desk_cfg, ["ddnn"], n_repeats=1, n_real=N_REAL,
                  models_dir=out)


def test_train_rejects_empty_dataset(tmp_path, desk_cfg):
    path = tmp_path / "empty.cfds"
    DatasetFile.create(path, DatasetHeader(
        config=desk_cfg, objective="sumse", precoder="rzf", n_samples=5,
        n_real=N_REAL, master_seed=1))
    with pytest.raises(DataFormatError, match="no samples"):
        cmd_train(path, "ddnn", tmp_path / "m", FAST_TRAIN)


def test_evaluate_report(tmp_path, desk_cfg, small_dataset):
    models_dir = tmp_path / "models"
    cmd_train(small_dataset, "ddnn", models_dir, FAST_TRAIN)
    out = tmp_path / "report"
    strategies = ["wmmse-sumse", "ddnn", "heuristic", "equal"]
    report = cmd_evaluate(desk_cfg, strategies, 3, "rzf", out_dir=out,
                          n_real=N_REAL, models_dir=models_dir)
    for strat in strategies:
        assert report.se[strat].shape == (3, desk_cfg.K)
        assert np.all(np.isfinite(report.se[strat]))
        assert report.alloc_seconds[strat] >= 0.0
    assert len(report.digests) == 3
    assert all(len(d) == 64 for d in report.digests)
    # the optimizer beats the untuned baselines on its own objective
    assert report.mean_total_se("wmmse-sumse") >= \
        report.mean_total_se("heuristic")
    assert report.mean_total_se("wmmse-sumse") >= \
        report.mean_total_se("equal")

    with open(out / "per_ue_se.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["drop", "strategy", "ue", "se"]
    assert len(rows) - 1 == len(strategies) * 3 * desk_cfg.K
    first = rows[1]
    assert float(first[3]) == report.se[strategies[0]][0, 0]

    with open(out / "cdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "se", "cdf"]
    assert len(rows) - 1 == len(strategies) * 3 * desk_cfg.K
    assert float(rows[-1][2]) == 1.0

    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "strategy"
    assert [r[0] for r in rows[1:]] == strategies
    assert float(rows[1][1]) == report.mean_total_se(strategies[0])


def test_evaluate_reports_solver_convergence(tmp_path, desk_cfg):
    strategies = ["wmmse-sumse", "heuristic", "wmmse-pf"]
    n_drops = 3
    report = cmd_evaluate(desk_cfg, strategies, n_drops, "rzf",
                          out_dir=tmp_path, n_real=N_REAL)
    assert set(report.solver) == {"wmmse-sumse", "wmmse-pf"}
    aps = place_aps(desk_cfg, desk_cfg.seed)
    samples = [build_sample(desk_cfg, aps, desk_cfg.seed, TEST_NAMESPACE,
                            drop, "rzf", N_REAL) for drop in range(n_drops)]
    for strat, objective in (("wmmse-sumse", "sumse"), ("wmmse-pf", "pf")):
        runs = [wmmse_solve(s.params, desk_cfg.p_max_dl,
                            SolverConfig(objective=objective))
                for s in samples]
        n_outer = [r.n_outer for r in runs]
        info = report.solver[strat]
        # the solves that scored the drops are the ones summarised
        assert info["converged"] == sum(r.converged for r in runs) == n_drops
        assert info["n_outer_p50"] == float(np.percentile(n_outer, 50))
        assert info["n_outer_p90"] == float(np.percentile(n_outer, 90))
        assert info["subproblem_exhausted"] == \
            sum(r.subproblem_exhausted for r in runs)
        assert np.array_equal(report.se[strat], np.stack(
            [compute_se(s.params, r.alloc) for s, r in zip(samples, runs)]))
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = {r["strategy"]: r for r in csv.DictReader(fh)}
    for strat in strategies:
        info = report.solver.get(strat, {})
        for column in ("converged", "n_outer_p50", "n_outer_p90",
                       "subproblem_exhausted"):
            cell = rows[strat][column]
            assert cell == (repr(info[column]) if info else "")


def test_evaluate_strategies_share_drops(desk_cfg):
    a = cmd_evaluate(desk_cfg, ["equal"], 2, "rzf", n_real=N_REAL)
    b = cmd_evaluate(desk_cfg, ["equal", "heuristic"], 2, "rzf",
                     n_real=N_REAL)
    assert a.digests == b.digests
    assert np.array_equal(a.se["equal"], b.se["equal"])


def test_evaluate_digests_are_the_drops_own(desk_cfg):
    report = cmd_evaluate(desk_cfg, ["wmmse-sumse", "heuristic"], 2, "rzf",
                          n_real=N_REAL)
    aps = place_aps(desk_cfg, desk_cfg.seed)
    assert report.digests == [
        build_sample(desk_cfg, aps, desk_cfg.seed, TEST_NAMESPACE, drop,
                     "rzf", N_REAL).params.digest() for drop in range(2)]


def test_evaluate_strategy_cannot_write_into_the_estimate(desk_cfg,
                                                         monkeypatch):
    allocator_for = pipeline._allocator_for

    def writing(strategy, cfg, models):
        alloc = allocator_for(strategy, cfg, models)
        if strategy != "equal":
            return alloc

        def scribble(sample):
            sample.params.B[0, 0] *= 2.0
            return alloc(sample)
        return scribble

    monkeypatch.setattr(pipeline, "_allocator_for", writing)
    with pytest.raises(ValueError, match="read-only"):
        cmd_evaluate(desk_cfg, ["heuristic", "equal"], 1, "rzf",
                     n_real=N_REAL)


def test_inspect_summarises_solver_diagnostics(small_dataset):
    records = list(DatasetFile.open(small_dataset))
    n_outer = [r.n_outer for r in records]
    info = cmd_inspect(small_dataset)["solver"]
    assert info == {
        "converged": sum(r.converged for r in records),
        "converged_frac": sum(r.converged for r in records) / len(records),
        "n_outer_p50": float(np.percentile(n_outer, 50)),
        "n_outer_p90": float(np.percentile(n_outer, 90)),
        "n_outer_max": max(n_outer),
        "subproblem_exhausted": sum(r.subproblem_exhausted for r in records),
        "clamp_events": sum(r.clamp_events for r in records),
        "sign_flips": sum(r.sign_flips for r in records)}
    # every desk solve converges; the record holds the solver's own counts
    assert info["converged_frac"] == 1.0
    assert info["subproblem_exhausted"] == 0
    assert 1 <= info["n_outer_p50"] <= info["n_outer_p90"] \
        <= info["n_outer_max"]
    assert json.loads(json.dumps(info)) == info


def test_inspect_of_an_empty_dataset_has_no_solver_summary(tmp_path,
                                                           desk_cfg):
    path = tmp_path / "empty.cfds"
    DatasetFile.create(path, DatasetHeader(
        config=desk_cfg, objective="sumse", precoder="rzf", n_samples=4,
        n_real=N_REAL, master_seed=1))
    assert cmd_inspect(path)["solver"] is None


def test_strategy_named_twice_is_rejected(desk_cfg, monkeypatch):
    # rejected before any drop is built, so nothing is counted twice
    monkeypatch.setattr(pipeline, "build_sample", None)
    with pytest.raises(ValueError, match="twice"):
        cmd_evaluate(desk_cfg, ["wmmse-sumse", "wmmse-sumse", "equal"], 3,
                     "rzf", n_real=N_REAL)
    with pytest.raises(ValueError, match="twice"):
        cmd_bench(desk_cfg, ["equal", "noop", "equal"], n_repeats=1,
                  n_real=N_REAL)


def test_evaluate_learned_needs_models(desk_cfg):
    with pytest.raises(DataFormatError, match="models"):
        cmd_evaluate(desk_cfg, ["cdnn"], 1, "rzf", n_real=N_REAL)


def test_bench_columns_and_noop(tmp_path, desk_cfg):
    out = tmp_path / "bench.csv"
    strategies = ["wmmse", "ddnn", "heuristic", "equal", "noop"]
    results = cmd_bench(desk_cfg, strategies, n_repeats=2, out_path=out,
                        n_real=N_REAL, cluster_size=2)
    assert sorted(results) == sorted(strategies)
    columns = ["sumse-mr", "sumse-rzf", "pf-mr", "pf-rzf"]
    for strat in strategies:
        assert sorted(results[strat]) == sorted(columns)
        assert all(v >= 0.0 for v in results[strat].values())
    assert all(results["noop"][c] < 1e-3 for c in columns)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy"] + columns
    assert [r[0] for r in rows[1:]] == strategies
    assert float(rows[1][1]) == results["wmmse"]["sumse-mr"]
    with pytest.raises(ValueError, match="strategy"):
        cmd_bench(desk_cfg, ["sgd"], n_repeats=1, n_real=N_REAL)


def test_bench_runs_trained_models_through_predict_allocation(
        tmp_path, desk_cfg, small_dataset, monkeypatch):
    models_dir = tmp_path / "models"
    cmd_train(small_dataset, "ddnn", models_dir, FAST_TRAIN)
    trained = load_models(models_dir, "ddnn")
    groups = []
    original = pipeline.predict_allocation

    def counting(models, beta, cfg):
        groups.append(models)
        return original(models, beta, cfg)

    monkeypatch.setattr(pipeline, "predict_allocation", counting)
    out = tmp_path / "bench.csv"
    results = cmd_bench(desk_cfg, ["ddnn", "equal"], n_repeats=2,
                        out_path=out, n_real=N_REAL, models_dir=models_dir)
    assert sorted(results["ddnn"]) == ["pf-mr", "pf-rzf", "sumse-mr",
                                       "sumse-rzf"]
    # one warm-up and two timed calls per column, all on the trained group
    assert len(groups) == 4 * 3
    for group in groups:
        assert [m.unit_id for m in group] == list(range(desk_cfg.L))
        for m, t in zip(group, trained):
            assert all(np.array_equal(a.W, b.W)
                       for a, b in zip(m.layers, t.layers))
            assert np.array_equal(m.scaler.median, t.scaler.median)
    with open(out, newline="") as fh:
        assert [r[0] for r in csv.reader(fh)] == ["strategy", "ddnn", "equal"]


def test_inspect_all_containers(tmp_path, desk_cfg, small_dataset,
                                desk_sample):
    info = cmd_inspect(small_dataset)
    assert info["type"] == "dataset"
    assert info["n_samples_present"] == 12
    assert info["objective"] == "sumse"
    assert info["config"]["K"] == desk_cfg.K

    models_dir = tmp_path / "models"
    paths = cmd_train(small_dataset, "ddnn", models_dir, FAST_TRAIN)
    info = cmd_inspect(paths[0])
    assert info["type"] == "model"
    assert info["kind"] == "ddnn"
    assert info["has_scaler"] is True
    assert info["layer_sizes"][0] == desk_cfg.K

    params = desk_sample("rzf").params
    se_path = tmp_path / "params.cfsep"
    params.save(se_path)
    info = cmd_inspect(se_path)
    assert info["type"] == "se-parameters"
    assert info["digest"] == params.digest()
    assert (info["K"], info["L"]) == (desk_cfg.K, desk_cfg.L)

    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="unrecognized"):
        cmd_inspect(junk)


def test_resolve_config_presets(tmp_path):
    desk = resolve_config("desk")
    assert (desk.L, desk.K) == (4, 6)
    large = resolve_config("large")
    assert (large.L, large.K, large.N) == (16, 20, 4)
    from cfpower.cli import preset_path
    copy = tmp_path / "my.cfg"
    copy.write_text(preset_path("desk").read_text())
    assert resolve_config(str(copy)) == desk
    assert resolve_config(str(copy)) == load_config(copy)


def test_cli_usage_errors(capsys):
    assert main(["generate"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["generate", "--config", "desk", "--samples", "2",
                 "--objective", "maxmin", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_cli_data_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.bin")]) == 2
    assert main(["generate", "--config", str(tmp_path / "no.cfg"),
                 "--samples", "1", "--out", str(tmp_path / "d.cfds")]) == 2
    assert main(["evaluate", "--config", "desk", "--samples", "1",
                 "--strategies", "cdnn", "--realizations", str(N_REAL),
                 "--out", str(tmp_path / "r")]) == 2
    assert "data error" in capsys.readouterr().err


def test_cli_unknown_strategy_is_usage_error(tmp_path, capsys):
    code = main(["evaluate", "--config", "desk", "--samples", "1",
                 "--strategies", "bogus", "--realizations", str(N_REAL),
                 "--out", str(tmp_path / "r")])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["evaluate", "--samples", "1", "--strategies", "equal,heuristic,equal",
     "--out", "rep"],
    ["bench", "--strategies", "noop,noop", "--repeats", "1"],
])
def test_cli_strategy_named_twice_is_usage_error(tmp_path, capsys,
                                                 monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code = main(command + ["--config", "desk",
                           "--realizations", str(N_REAL)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "twice" in err
    assert not (tmp_path / "rep").exists()


def test_cli_degeneracy_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise SolverDegeneracyError("9 of 10 optimizer runs failed")
    monkeypatch.setattr("cfpower.pipeline.cmd_generate", explode)
    code = main(["generate", "--config", "desk", "--samples", "2",
                 "--out", str(tmp_path / "d.cfds")])
    assert code == 3
    assert "solver degeneracy" in capsys.readouterr().err


@pytest.mark.parametrize("command, b_scale, message", [
    # -B makes every WMMSE subproblem matrix negative definite
    (["generate", "--samples", "1", "--out", "d.cfds"], -1.0, "indefinite"),
    # B = 0 puts every SINR denominator below the noise floor
    (["evaluate", "--samples", "1", "--strategies", "equal", "--out", "rep"],
     0.0, "noise floor"),
])
def test_cli_numerical_failure_exit_code(tmp_path, capsys, monkeypatch,
                                         command, b_scale, message):
    def inconsistent(*args, **kwargs):
        sample = build_sample(*args, **kwargs)
        params = dataclasses.replace(sample.params,
                                     B=b_scale * sample.params.B)
        return dataclasses.replace(sample, params=params)
    monkeypatch.setattr("cfpower.pipeline.build_sample", inconsistent)
    monkeypatch.chdir(tmp_path)
    code = main(command + ["--config", "desk",
                           "--realizations", str(N_REAL)])
    assert code == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err


def test_cli_train_defaults_are_the_packages(tmp_path, monkeypatch):
    seen = {}

    def recording(dataset, kind, out_dir, train_cfg, cluster_size):
        seen.update(train_cfg=train_cfg, cluster_size=cluster_size)
        return []

    monkeypatch.setattr(pipeline, "cmd_train", recording)
    assert main(["train", "--dataset", str(tmp_path / "d.cfds"), "--kind",
                 "ddnn", "--out", str(tmp_path / "models")]) == 0
    assert seen == {"train_cfg": TrainConfig(),
                    "cluster_size": pipeline.DEFAULT_CLUSTER_SIZE}


def test_cli_full_walkthrough(tmp_path, capsys):
    # six samples keep the scaler fit (needs >= 4 rows) alive after the split
    ds = tmp_path / "train.cfds"
    code = main(["generate", "--config", "desk", "--samples", "6",
                 "--realizations", str(N_REAL), "--out", str(ds)])
    assert code == 0
    assert "wrote 6 samples" in capsys.readouterr().out

    models = tmp_path / "models"
    code = main(["train", "--dataset", str(ds), "--kind", "ddnn",
                 "--epochs", "1", "--batch-size", "4",
                 "--out", str(models)])
    assert code == 0
    assert "wrote 4 models" in capsys.readouterr().out

    report = tmp_path / "report"
    code = main(["evaluate", "--config", "desk", "--samples", "2",
                 "--strategies", "ddnn,heuristic,equal,wmmse-sumse",
                 "--realizations", str(N_REAL), "--models", str(models),
                 "--out", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "heuristic: mean total SE" in out
    # the solver's line carries its convergence summary, the others none
    assert "2/2 converged, outer steps p50" in out
    assert out.count("converged") == 1
    assert os.path.exists(report / "summary.csv")

    code = main(["inspect", str(ds)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n_samples_present"] == 6

    bench = tmp_path / "bench.csv"
    code = main(["bench", "--config", "desk", "--strategies", "equal,noop",
                 "--repeats", "1", "--realizations", str(N_REAL),
                 "--cluster-size", "2", "--out", str(bench)])
    assert code == 0
    assert os.path.exists(bench)

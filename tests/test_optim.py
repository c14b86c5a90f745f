"""Adaptive-moment optimizer, plateau schedule, and the shared epoch loop."""
import numpy as np
import pytest

import mindkit.diffcore as dc
from mindkit.optim import Adam, PlateauSchedule, Run, fit_stack


class TestAdam:
    def test_first_step_moves_by_lr_in_sign_direction(self):
        # with zero moment state the very first update is ~lr * sign(grad)
        p = {"w": np.array([1.0, -2.0, 0.5])}
        opt = Adam(p)
        opt.step({"w": np.array([3.0, -0.2, 0.0])}, 0.1)
        np.testing.assert_allclose(
            p["w"], [1.0 - 0.1, -2.0 + 0.1, 0.5], atol=1e-6)

    def test_minimizes_quadratic(self):
        target = np.array([2.0, -1.0, 0.5, 3.0])
        p = {"w": np.zeros(4)}
        opt = Adam(p)
        for _ in range(2000):
            opt.step({"w": 2.0 * (p["w"] - target)}, 0.05)
        np.testing.assert_allclose(p["w"], target, atol=1e-4)

    def test_updates_in_place(self):
        arr = np.ones(3)
        opt = Adam({"w": arr})
        opt.step({"w": np.ones(3)}, 0.1)
        assert arr is opt.params["w"]
        assert not np.allclose(arr, 1.0)

    def test_weight_decay_only_touches_decay_keys(self):
        p = {"w": np.full(2, 4.0), "g": np.full(2, 4.0)}
        opt = Adam(p, weight_decay=0.5, decay_keys=("w",))
        for _ in range(1000):
            opt.step({"w": np.zeros(2), "g": np.zeros(2)}, 0.01)
        # decayed parameter is pulled toward zero, the other never moves
        assert np.all(np.abs(p["w"]) < 1.0)
        np.testing.assert_array_equal(p["g"], np.full(2, 4.0))

    def test_decay_shrinks_stationary_point(self):
        # minimizing (w - 4)^2 + (wd/2)|w|^2 lands strictly inside w=4
        p = {"w": np.array([0.0])}
        opt = Adam(p, weight_decay=1.0, decay_keys=("w",))
        for _ in range(3000):
            opt.step({"w": 2.0 * (p["w"] - 4.0)}, 0.02)
        np.testing.assert_allclose(p["w"], [8.0 / 3.0], atol=1e-3)

    def test_deterministic(self):
        def run():
            p = {"w": np.array([1.0, 2.0])}
            opt = Adam(p)
            rng = np.random.default_rng(0)
            for _ in range(50):
                opt.step({"w": rng.normal(size=2)}, 0.07)
            return p["w"]

        np.testing.assert_array_equal(run(), run())


class TestPlateauSchedule:
    def _run(self, sched, lr=0.05):
        return Run("toy fit", np.random.default_rng(0), sched, lr)

    def test_improvement_resets_counter(self):
        sched = PlateauSchedule(patience=3, min_delta=1e-4)
        run = self._run(sched)
        losses = [1.0, 0.9, 0.89, 0.89, 0.7, 0.69, 0.69]
        for loss in losses:
            assert sched.update(loss, run)
        assert run.lr == 0.05

    def test_halves_after_patience_epochs_without_improvement(self):
        sched = PlateauSchedule(patience=3, min_delta=1e-4)
        run = self._run(sched)
        sched.update(1.0, run)
        for _ in range(3):
            sched.update(1.0, run)
        assert run.lr == 0.025

    def test_improvement_must_beat_min_delta(self):
        sched = PlateauSchedule(patience=2, min_delta=1e-4)
        run = self._run(sched)
        sched.update(1.0, run)
        # 5e-5 improvements are below the threshold, so they count as flat
        sched.update(1.0 - 5e-5, run)
        sched.update(1.0 - 9e-5, run)
        assert run.lr == 0.025

    def test_floor_boundary_exact(self):
        # halving 1e-5 gives exactly 5e-6, which still satisfies the floor;
        # one more halving drops below it and stops training
        sched = PlateauSchedule(patience=1, min_delta=1e-4, floor=5e-6)
        run = self._run(sched, lr=1e-5)
        sched.update(1.0, run)
        assert sched.update(1.0, run) and run.lr == 5e-6
        assert not sched.update(1.0, run) and run.lr == 2.5e-6

    def test_repeated_halvings(self):
        # first call improves on +inf; halvings then land on calls 3, 5, 7
        sched = PlateauSchedule(patience=2, min_delta=1e-4, floor=1e-9)
        run = self._run(sched, lr=0.8)
        for _ in range(8):
            sched.update(1.0, run)
        assert run.lr == 0.8 / 2 ** 3


class TestFit:
    """A single fit is a stack of one run."""

    def _run(self, val_losses, n=5, batch_size=2, max_epochs=10, lr=0.1,
             floor=1e-9, patience=10, batch_loss=1.0):
        """Fit w under a unit gradient; val_loss replays `val_losses` and
        records w and the rows each epoch visited."""
        params = {"w": np.zeros((1, 2))}
        run = Run("toy fit", np.random.default_rng(0),
                  PlateauSchedule(patience=patience, floor=floor), lr)
        seen, snapshots, replay = [], [], iter(val_losses)

        def loss_and_grad(idx):
            assert idx.shape[0] == 1
            seen.extend(idx[0].tolist())
            return [batch_loss], {"w": np.ones((1, 2))}

        def val_loss():
            snapshots.append((sorted(seen), params["w"][0].copy()))
            seen.clear()
            return [next(replay)]

        fit_stack(params, loss_and_grad, val_loss, n, batch_size, max_epochs,
                  [run], Adam(params))
        return params["w"][0], run, snapshots

    def test_restores_best_epoch_not_last(self):
        w, run, snaps = self._run([3.0, 1.0, 2.0, 4.0], max_epochs=4)
        assert run.stop_reason == "max_epochs"
        assert run.history["val_loss"] == [3.0, 1.0, 2.0, 4.0]
        assert run.history["train_loss"] == [1.0] * 4
        # every epoch visits each of the 5 rows once, in batches of 2, 2, 1
        assert all(rows == [0, 1, 2, 3, 4] for rows, _ in snaps)
        np.testing.assert_array_equal(w, snaps[1][1])
        assert not np.array_equal(w, snaps[-1][1])

    def test_stops_at_lr_floor(self):
        # epoch 0 improves on +inf; epochs 1 and 2 halve the rate, and the
        # second halving (0.025) falls below the floor
        _, run, _ = self._run([1.0] * 10, patience=1, floor=0.03)
        assert run.stop_reason == "lr_floor"
        assert len(run.history["val_loss"]) == 3
        assert run.history["lr"] == [0.1, 0.1, 0.05]

    @pytest.mark.parametrize("batch_loss,vals,which", [
        (float("nan"), [1.0], "training"),
        (1.0, [1.0, float("inf")], "validation"),
    ])
    def test_nonfinite_loss_names_the_fit(self, batch_loss, vals, which):
        _, run, _ = self._run(vals, batch_loss=batch_loss)
        assert run.stop_reason is None
        assert run.error.startswith(f"non-finite {which} loss in toy fit")

    def test_parameter_turned_nonfinite_fails_the_fit(self):
        # sweeps that skip the finiteness check leave it to the loss check
        X = dc.constant(np.random.default_rng(1).normal(size=(6, 2)))
        w = dc.leaf("w", (2, 1))
        graph = dc.Graph(dc.mean(dc.mul(dc.matmul(X, w), dc.matmul(X, w))))
        params = {"w": np.ones((2, 1))}
        stacked = {"w": params["w"][None]}
        run = Run("toy fit", np.random.default_rng(0), PlateauSchedule(), 0.1)
        steps = iter(range(10 ** 9))

        def loss_and_grad(idx):
            loss, grads = graph.value_and_grad(params, ["w"], check=False)
            return [loss], grads

        def after_step():
            if next(steps) == 2:  # epoch 1's first step: 2 steps an epoch
                params["w"][0, 0] = np.nan

        fit_stack(stacked, loss_and_grad,
                  lambda: [graph.evaluate(params, check=False)], 6, 3, 5,
                  [run], Adam(stacked), after_step)
        assert run.error.startswith("non-finite training loss in toy fit at "
                                    "epoch 1")


class TestFitStack:
    def _runs(self, floors):
        return [Run(f"toy {i}", np.random.default_rng(i),
                    PlateauSchedule(patience=1, floor=floor), 0.1)
                for i, floor in enumerate(floors)]

    def test_failed_run_freezes_while_the_others_go_on(self):
        # run 0 diverges at its 4th step: NaN loss and gradients from then
        # on; run 1 trains for every epoch
        params = {"w": np.zeros((2, 3))}
        runs = self._runs([1e-9, 1e-9])
        steps = []

        def loss_and_grad(idx):
            assert idx.shape[0] == 2
            steps.append(params["w"].copy())
            bad = len(steps) >= 4
            grads = np.ones((2, 3))
            grads[0] = np.nan if bad else 1.0
            return np.array([np.nan if bad else 1.0, 1.0]), {"w": grads}

        fit_stack(params, loss_and_grad, lambda: np.array([1.0, 1.0]), 5, 2,
                  4, runs, Adam(params))
        assert runs[0].error == ("non-finite training loss in toy 0 at epoch "
                                 "1 (lr=0.1); inspect data scaling or lower "
                                 "lr")
        assert len(runs[0].history["val_loss"]) == 1
        np.testing.assert_array_equal(params["w"][0], steps[3][0])
        assert runs[1].error is None and runs[1].stop_reason == "max_epochs"
        assert len(runs[1].history["val_loss"]) == 4
        assert len(steps) == 12  # 3 batches of 5 rows in each of 4 epochs

    def test_stopped_run_keeps_its_best_epoch(self):
        # run 0 hits its lr floor after epoch 2 and is restored to epoch 0;
        # run 1 keeps improving and keeps stepping
        params = {"w": np.zeros((2, 2))}
        runs = self._runs([0.04, 1e-9])
        snaps, vals = [], iter([[1.0, 3.0], [1.0, 2.0], [1.0, 1.0],
                                [1.0, 0.5]])

        def val_loss():
            snaps.append(params["w"].copy())
            return np.array(next(vals))

        fit_stack(params, lambda idx: (np.ones(2), {"w": np.ones((2, 2))}),
                  val_loss, 4, 2, 4, runs, Adam(params))
        assert runs[0].stop_reason == "lr_floor"
        assert runs[0].history["lr"] == [0.1, 0.1, 0.05]
        np.testing.assert_array_equal(params["w"][0], snaps[0][0])
        assert runs[1].stop_reason == "max_epochs"
        np.testing.assert_array_equal(params["w"][1], snaps[3][1])
        assert not np.array_equal(params["w"][1], snaps[2][1])

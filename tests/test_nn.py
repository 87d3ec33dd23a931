"""Network machinery: forward/backward correctness, clipping, Adam, Polyak."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_pursuit.nn import (
    MlpParams,
    Workspace,
    adam_init,
    adam_step,
    backward,
    clip_global_norm,
    forward,
    global_norm,
    mlp_init,
    parameter_count,
    polyak_update,
)


def numeric_param_gradient(params, x, gy, h=1e-6):
    """Central finite differences over every single parameter entry."""
    g = np.zeros_like(params.flat)
    for i, old in enumerate(params.flat.copy()):
        params.flat[i] = old + h
        up = float(np.dot(forward(params, x)[0], gy))
        params.flat[i] = old - h
        down = float(np.dot(forward(params, x)[0], gy))
        params.flat[i] = old
        g[i] = (up - down) / (2 * h)
    return g


def scalar_net(w, b):
    """A 1 -> 1 network with the given weight and bias."""
    return MlpParams.from_layers([np.array([[w]])], [np.array([b])], "relu", "identity")


# -- reference: the per-layer list optimizer the flat vectors replaced -------
# A "bundle" is a (weights, biases) pair of per-layer lists. The flat updates
# must reproduce these bit for bit.

def ref_bundle(params, vec):
    weights, biases = params.layers(vec)
    return [w.copy() for w in weights], [b.copy() for b in biases]


def ref_flat(bundle):
    return np.concatenate([a.ravel() for a in bundle[0] + bundle[1]])


def ref_global_norm(grads):
    total = sum(float(np.sum(w**2)) for w in grads[0])
    total += sum(float(np.sum(b**2)) for b in grads[1])
    return math.sqrt(total)


def ref_clip_global_norm(grads, max_norm):
    norm = ref_global_norm(grads)
    if norm <= max_norm:
        return [w.copy() for w in grads[0]], [b.copy() for b in grads[1]]
    factor = max_norm / norm
    return [w * factor for w in grads[0]], [b * factor for b in grads[1]]


def ref_adam_step(params, grads, m, v, step, learning_rate,
                  beta1=0.9, beta2=0.999, eps=1e-8):
    t = step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    new_p, new_m, new_v = ([], []), ([], []), ([], [])
    for kind in range(2):
        for p, g, mk, vk in zip(params[kind], grads[kind], m[kind], v[kind]):
            mk = beta1 * mk + (1.0 - beta1) * g
            vk = beta2 * vk + (1.0 - beta2) * g**2
            new_p[kind].append(p - learning_rate * (mk / c1) / (np.sqrt(vk / c2) + eps))
            new_m[kind].append(mk)
            new_v[kind].append(vk)
    return new_p, new_m, new_v, t


def ref_forward(params, x):
    """The fresh-array forward: cache of (input, pre-activation) per layer."""
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh, "identity": lambda z: z}
    cache, h, last = [], np.asarray(x, dtype=np.float64), len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        cache.append((h, z))
        h = act[params.output_activation if i == last else params.hidden_activation](z)
    return h, cache


def ref_backward(params, cache, gy):
    """The fresh-array backward, derivatives taken from the pre-activations."""
    deriv = {
        "relu": lambda z: (z > 0.0).astype(np.float64),
        "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
        "identity": np.ones_like,
    }
    grads = np.empty_like(params.flat)
    g_weights, g_biases = params.layers(grads)
    grad, last = np.asarray(gy, dtype=np.float64), len(params.weights) - 1
    for i in range(last, -1, -1):
        h_in, z = cache[i]
        dz = grad * deriv[params.output_activation if i == last else params.hidden_activation](z)
        g_weights[i][...] = np.outer(dz, h_in) if dz.ndim == 1 else dz.T @ h_in
        g_biases[i][...] = dz if dz.ndim == 1 else dz.sum(axis=0)
        grad = dz @ params.weights[i]
    return grads, grad


def ref_polyak_update(target, online, tau):
    return tuple(
        [(1.0 - tau) * t + tau * o for t, o in zip(target[kind], online[kind])]
        for kind in range(2)
    )


class TestInit:
    def test_actor_shape_parameter_count(self):
        params = mlp_init([8, 128, 128, 2], np.random.default_rng(0))
        assert parameter_count(params) == 8 * 128 + 128 + 128 * 128 + 128 + 128 * 2 + 2
        assert len(params.weights) == 3

    def test_deterministic_per_seed(self):
        a = mlp_init([4, 8, 2], np.random.default_rng(5))
        b = mlp_init([4, 8, 2], np.random.default_rng(5))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero_and_weight_bounds(self):
        params = mlp_init([10, 20, 3], np.random.default_rng(1))
        for b in params.biases:
            assert np.all(b == 0.0)
        for w, fan_in in zip(params.weights, [10, 20]):
            assert np.all(np.abs(w) <= 1.0 / math.sqrt(fan_in))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            mlp_init([4], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_init([4, 0, 2], np.random.default_rng(0))


class TestForward:
    def test_zero_network_zero_output(self):
        params = mlp_init([3, 4, 2], np.random.default_rng(0))
        for w in params.weights:
            w[...] = 0.0
        y, _ = forward(params, np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(y, np.zeros(2))

    def test_identity_layer(self):
        params = MlpParams.from_layers([np.eye(3)], [np.zeros(3)], "relu", "identity")
        x = np.array([0.5, -1.5, 2.0])
        y, _ = forward(params, x)
        assert np.array_equal(y, x)

    def test_matches_hand_rolled_matrix_chain(self):
        # independent straight-line oracle for a random 2-layer net
        rng = np.random.default_rng(3)
        params = mlp_init([4, 6, 3], rng)
        x = rng.standard_normal(4)
        z1 = params.weights[0] @ x + params.biases[0]
        h1 = np.maximum(z1, 0.0)
        expected = params.weights[1] @ h1 + params.biases[1]
        y, _ = forward(params, x)
        assert np.allclose(y, expected, atol=1e-12)

    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(4)
        params = mlp_init([5, 7, 2], rng)
        xs = rng.standard_normal((6, 5))
        batch, _ = forward(params, xs)
        for row, x in zip(batch, xs):
            single, _ = forward(params, x)
            assert np.allclose(row, single, atol=1e-15)

    def test_dimension_mismatch(self):
        params = mlp_init([5, 7, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(params, np.zeros(4))


class TestBackward:
    @pytest.mark.parametrize("sizes", [[3, 5, 2], [4, 8, 8, 2], [6, 10, 10, 10, 1]])
    def test_matches_finite_differences(self, sizes):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10):
            params = mlp_init(sizes, rng)
            x = rng.standard_normal(sizes[0])
            gy = rng.standard_normal(sizes[-1])
            _, cache = forward(params, x)
            analytic, _ = backward(params, cache, gy)
            numeric = numeric_param_gradient(params, x, gy)
            fa, fn = analytic, numeric
            scale = np.maximum(np.maximum(np.abs(fa), np.abs(fn)), 1e-4)
            worst = max(worst, float(np.max(np.abs(fa - fn) / scale)))
        assert worst < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        params = mlp_init([4, 6, 3], rng)
        x = rng.standard_normal(4)
        gy = rng.standard_normal(3)
        _, cache = forward(params, x)
        _, gx = backward(params, cache, gy)
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            num = (np.dot(forward(params, xp)[0], gy) - np.dot(forward(params, xm)[0], gy)) / (2 * h)
            assert gx[i] == pytest.approx(num, rel=1e-5, abs=1e-8)

    def test_zero_output_gradient(self):
        rng = np.random.default_rng(17)
        params = mlp_init([4, 6, 3], rng)
        x = rng.standard_normal(4)
        _, cache = forward(params, x)
        grads, gx = backward(params, cache, np.zeros(3))
        assert grads.shape == params.flat.shape
        assert np.all(grads == 0.0)
        assert np.all(gx == 0.0)

    def test_identity_layer_outer_product(self):
        params = MlpParams.from_layers([np.eye(3)], [np.zeros(3)], "relu", "identity")
        x = np.array([1.0, 2.0, 3.0])
        gy = np.array([0.5, -1.0, 2.0])
        _, cache = forward(params, x)
        grads, _ = backward(params, cache, gy)
        g_weights, g_biases = params.layers(grads)
        assert np.allclose(g_weights[0], np.outer(gy, x))
        assert np.allclose(g_biases[0], gy)

    def test_batch_gradients_sum_over_rows(self):
        rng = np.random.default_rng(19)
        params = mlp_init([3, 5, 2], rng)
        xs = rng.standard_normal((4, 3))
        gys = rng.standard_normal((4, 2))
        _, cache = forward(params, xs)
        batch_grads, _ = backward(params, cache, gys)
        total = np.zeros_like(params.flat)
        for x, gy in zip(xs, gys):
            _, c = forward(params, x)
            g, _ = backward(params, c, gy)
            total += g
        assert np.allclose(batch_grads, total, atol=1e-12)

    @pytest.mark.parametrize("rows", [None, 4])
    def test_skipped_gradients_leave_the_other_bit_equal(self, rows):
        rng = np.random.default_rng(21)
        params = mlp_init([3, 5, 5, 2], rng)
        x = rng.standard_normal((3,) if rows is None else (rows, 3))
        gy = rng.standard_normal((2,) if rows is None else (rows, 2))

        def run(**skip):
            _, cache = forward(params, x)
            grads, gx = backward(params, cache, gy, **skip)
            return (None if grads is None else grads.copy()), (None if gx is None else gx.copy())

        grads, gx = run()
        only_grads, no_gx = run(input_gradient=False)
        no_grads, only_gx = run(parameter_gradient=False)
        assert no_gx is None and no_grads is None
        assert np.array_equal(only_grads, grads)
        assert np.array_equal(only_gx, gx)

    def test_tanh_output_head(self):
        rng = np.random.default_rng(23)
        params = mlp_init([3, 4, 2], rng, output_activation="tanh")
        x = rng.standard_normal(3)
        gy = rng.standard_normal(2)
        _, cache = forward(params, x)
        analytic, _ = backward(params, cache, gy)
        numeric = numeric_param_gradient(params, x, gy)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


class TestClipping:
    def test_halves_when_norm_double(self):
        net = scalar_net(0.0, 0.0)
        g = np.array([0.6, 0.8])  # weight, then bias: norm 1.0
        clipped = clip_global_norm(net, g, 0.5)
        assert clipped[0] == pytest.approx(0.3)
        assert clipped[1] == pytest.approx(0.4)

    def test_unchanged_below_max(self):
        g = np.array([0.3, 0.0])
        clipped = clip_global_norm(scalar_net(0.0, 0.0), g, 0.5)
        assert clipped is g  # scaled in place, here by nothing
        assert clipped[0] == 0.3

    def test_resulting_norm(self):
        rng = np.random.default_rng(29)
        net = mlp_init([4, 3], rng)
        for _ in range(100):
            g = rng.standard_normal(net.flat.size)
            before = global_norm(net, g)
            after = global_norm(net, clip_global_norm(net, g, 0.5))
            assert after == pytest.approx(min(before, 0.5), abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        net = mlp_init([5, 5], rng)
        g = rng.standard_normal(net.flat.size) * 3
        once = clip_global_norm(net, g.copy(), 0.5)
        twice = clip_global_norm(net, once.copy(), 0.5)
        assert np.allclose(once, twice, atol=1e-15)


class TestAdam:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(37)
        params = mlp_init([3, 4, 2], rng)
        before = params.flat.copy()
        new_params, new_state = adam_step(params, np.zeros_like(params.flat), adam_init(params), 1e-3)
        assert np.allclose(before, new_params.flat)
        assert new_state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        # hand-computed single step: bias correction makes |update| ~ lr
        params = scalar_net(1.0, 0.0)
        g = np.array([0.25, -3.0])
        state = adam_init(params)
        lr = 1e-3
        new_params, _ = adam_step(params, g, state, lr)
        assert new_params.weights[0][0, 0] == pytest.approx(1.0 - lr, rel=1e-6)
        assert new_params.biases[0][0] == pytest.approx(0.0 + lr, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        params = mlp_init([3, 4, 2], rng)
        g = rng.standard_normal(params.flat.size)
        out1 = adam_step(params.copy(), g, adam_init(params), 1e-3)
        out2 = adam_step(params.copy(), g, adam_init(params), 1e-3)
        assert np.array_equal(out1[0].flat, out2[0].flat)
        assert np.array_equal(out1[1].m, out2[1].m) and np.array_equal(out1[1].v, out2[1].v)

    def test_shape_mismatch(self):
        params = mlp_init([3, 4, 2], np.random.default_rng(0))
        bad = np.zeros(params.flat.size + 1)
        with pytest.raises(ValueError):
            adam_step(params, bad, adam_init(params), 1e-3)


class TestPolyak:
    def test_endpoints(self):
        rng = np.random.default_rng(43)
        target = mlp_init([3, 4, 2], rng)
        online = mlp_init([3, 4, 2], rng)
        assert np.allclose(polyak_update(target.copy(), online, 1.0).flat, online.flat)
        assert np.allclose(polyak_update(target.copy(), online, 0.0).flat, target.flat)

    def test_scalar_probe(self):
        target = scalar_net(0.0, 0.0)
        online = scalar_net(1.0, 1.0)
        updated = polyak_update(target, online, 0.001)
        assert updated.weights[0][0, 0] == pytest.approx(0.001)

    def test_entrywise_betweenness(self):
        rng = np.random.default_rng(47)
        target = mlp_init([4, 6, 2], rng)
        online = mlp_init([4, 6, 2], rng)
        updated = polyak_update(target.copy(), online, 0.3)
        for t, o, u in zip(target.weights, online.weights, updated.weights):
            lo = np.minimum(t, o)
            hi = np.maximum(t, o)
            assert np.all(u >= lo - 1e-15) and np.all(u <= hi + 1e-15)

    def test_invalid_tau(self):
        params = mlp_init([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            polyak_update(params, params, 1.5)


class TestFiniteness:
    def test_no_non_finite_values_through_pipeline(self):
        rng = np.random.default_rng(53)
        params = mlp_init([6, 16, 16, 2], rng)
        state = adam_init(params)
        for _ in range(50):
            x = rng.standard_normal(6)
            y, cache = forward(params, x)
            assert np.all(np.isfinite(y))
            grads, _ = backward(params, cache, rng.standard_normal(2))
            grads = clip_global_norm(params, grads, 0.5)
            assert np.isfinite(global_norm(params, grads))
            params, state = adam_step(params, grads, state, 1e-3)
            assert np.all(np.isfinite(params.flat))


class TestFlatLayout:
    def test_weights_then_biases_row_major(self):
        params = mlp_init([3, 4, 2], np.random.default_rng(59))
        layout = np.concatenate([a.ravel() for a in params.weights + params.biases])
        assert np.array_equal(params.flat, layout)
        assert params.layer_sizes == (3, 4, 2)

    def test_views_write_through_and_copy_shares_nothing(self):
        params = mlp_init([3, 4, 2], np.random.default_rng(61))
        params.weights[1][0, 2] = 5.0  # after W0's 4x3 entries
        params.biases[0][1] = -2.0  # after W0 and W1's 2x4 entries
        assert params.flat[12 + 2] == 5.0
        assert params.flat[12 + 8 + 1] == -2.0
        twin = params.copy()
        assert np.array_equal(twin.flat, params.flat)
        for a in [twin.flat, *twin.weights, *twin.biases]:
            assert not np.shares_memory(a, params.flat)
        twin.weights[0][...] = 0.0
        assert params.weights[0][0, 0] != 0.0

    def test_updates_write_in_place(self):
        rng = np.random.default_rng(67)
        params = mlp_init([3, 4, 2], rng)
        target = params.copy()
        state = adam_init(params)
        flat, m, v = params.flat, state.m, state.v
        g = rng.standard_normal(params.flat.size)
        g_before = g.copy()
        stepped, new_state = adam_step(params, g, state, 1e-3)
        assert stepped is params and new_state is state
        assert stepped.flat is flat and new_state.m is m and new_state.v is v
        assert np.shares_memory(stepped.weights[0], flat)  # views still see the update
        assert np.array_equal(g, g_before)  # the gradient is only read
        online_before = params.flat.copy()
        averaged = polyak_update(target, params, 0.5)
        assert averaged is target
        assert np.array_equal(params.flat, online_before)
        for vec in (g, params.flat):
            assert not np.shares_memory(averaged.flat, vec)
        # target aliasing online still reads online before scaling it
        same = params.flat.copy()
        assert np.array_equal(polyak_update(params, params, 0.3).flat, 0.7 * same + 0.3 * same)

    def test_layer_views_reject_other_layouts(self):
        params = mlp_init([3, 4, 2], np.random.default_rng(71))
        with pytest.raises(ValueError):
            params.layers(np.zeros(params.flat.size - 1))
        with pytest.raises(ValueError):
            global_norm(params, np.zeros((2, params.flat.size)))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    steps=st.integers(1, 5),
    learning_rate=st.floats(1e-6, 0.1),
    tau=st.floats(0.0, 1.0),
    max_norm=st.floats(1e-3, 10.0),
    ascend=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_updates_equal_list_reference(sizes, steps, learning_rate, tau, max_norm,
                                           ascend, seed):
    rng = np.random.default_rng(seed)
    params = mlp_init(sizes, rng)
    target = mlp_init(sizes, rng)
    state = adam_init(params)
    ref_p, ref_t = ref_bundle(params, params.flat), ref_bundle(target, target.flat)
    ref_m, ref_v = ref_bundle(params, state.m), ref_bundle(params, state.v)
    ref_step = 0
    for _ in range(steps):
        _, cache = forward(params, rng.standard_normal((3, sizes[0])))
        grads, _ = backward(params, cache, rng.standard_normal((3, sizes[-1])))
        ref_g = ref_bundle(params, grads)
        assert global_norm(params, grads) == ref_global_norm(ref_g)

        clipped = clip_global_norm(params, grads, max_norm)
        ref_clipped = ref_clip_global_norm(ref_g, max_norm)
        assert np.array_equal(clipped, ref_flat(ref_clipped))
        if ascend:  # the actor's sign flip
            clipped = -clipped
            ref_clipped = tuple([-a for a in layers] for layers in ref_clipped)

        params, state = adam_step(params, clipped, state, learning_rate)
        ref_p, ref_m, ref_v, ref_step = ref_adam_step(
            ref_p, ref_clipped, ref_m, ref_v, ref_step, learning_rate
        )
        assert np.array_equal(params.flat, ref_flat(ref_p))
        assert np.array_equal(state.m, ref_flat(ref_m))
        assert np.array_equal(state.v, ref_flat(ref_v))
        assert state.step == ref_step

        target = polyak_update(target, params, tau)
        ref_t = ref_polyak_update(ref_t, ref_p, tau)
        assert np.array_equal(target.flat, ref_flat(ref_t))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    rows=st.sampled_from([None, 1, 5]),
    hidden=st.sampled_from(["relu", "tanh"]),
    output=st.sampled_from(["identity", "tanh", "relu"]),
    specials=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_workspace_passes_equal_fresh_array_reference(sizes, rows, hidden, output, specials,
                                                      seed):
    rng = np.random.default_rng(seed)
    params = mlp_init(sizes, rng, hidden, output)
    if specials:  # pre-activations of exactly +-0.0, and NaN from a NaN weight
        params.weights[0][0] = 0.0
        params.biases[0][0] = -0.0 if rows is None else 0.0
        if len(sizes) > 2:
            params.weights[0][-1, 0] = np.nan
    shape = (sizes[0],) if rows is None else (rows, sizes[0])
    out_shape = (sizes[-1],) if rows is None else (rows, sizes[-1])
    ws = Workspace(params.layer_sizes, rows)
    for _ in range(2):  # the second pass reuses every buffer
        x, gy = rng.standard_normal(shape), rng.standard_normal(out_shape)
        ref_y, ref_cache = ref_forward(params, x)
        y, cache = forward(params, x, ws)
        assert cache is ws and np.shares_memory(y, ws.activations[-1])
        assert np.array_equal(y, ref_y, equal_nan=True)
        ref_g, ref_gx = ref_backward(params, ref_cache, gy)
        g, gx = backward(params, cache, gy)
        assert np.array_equal(g, ref_g, equal_nan=True)
        assert np.array_equal(gx, ref_gx, equal_nan=True)


class TestWorkspace:
    def test_private_workspaces_share_nothing(self):
        rng = np.random.default_rng(73)
        params = mlp_init([3, 5, 2], rng)
        x = rng.standard_normal((4, 3))
        y1, c1 = forward(params, x)
        y2, c2 = forward(params, x + 1.0)
        g1, _ = backward(params, c1, np.ones((4, 2)))
        g2, _ = backward(params, c2, np.ones((4, 2)))
        assert c1 is not c2
        assert not np.shares_memory(y1, y2) and not np.shares_memory(g1, g2)

    def test_shared_vectors_and_forward_only(self):
        params = mlp_init([3, 5, 2], np.random.default_rng(79))
        single = Workspace(params.layer_sizes)
        forward(params, np.ones(3), single)
        assert single._pool.buffers == {}  # a forward never makes the gradient buffers
        # sharing lends the gradient and input-gradient buffers to any layout
        other = mlp_init([6, 4, 1], np.random.default_rng(80))
        batch = Workspace(params.layer_sizes, 4, shared=single)
        wide = Workspace(other.layer_sizes, 4, shared=single)
        _, cache = forward(params, np.ones((4, 3)), batch)
        grads, gx = backward(params, cache, np.ones((4, 2)))
        _, cache = forward(other, np.ones((4, 6)), wide)
        other_grads, other_gx = backward(other, cache, np.ones((4, 1)))
        assert np.shares_memory(grads, other_grads) and np.shares_memory(gx, other_gx)
        assert not np.shares_memory(batch.activations[0], wide.activations[0])

    def test_layout_and_rows_must_match(self):
        params = mlp_init([3, 5, 2], np.random.default_rng(83))
        with pytest.raises(ValueError):
            forward(params, np.ones((4, 3)), Workspace(params.layer_sizes, 5))
        with pytest.raises(ValueError):
            forward(params, np.ones(3), Workspace([3, 4, 2]))
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(params.flat.size), adam_init(params), 1e-3,
                      ws=Workspace([3, 4, 2]))
        _, cache = forward(params, np.ones((4, 3)))
        with pytest.raises(ValueError):
            backward(params, cache, np.ones((5, 2)))

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from chebykan.chebyshev import PolyKind
from chebykan.data import Dataset
from chebykan.experiments import TrainConfig, evaluate, train
from chebykan.layers import ChebyKanLayer, InitMethod, LayerNorm
from chebykan.ndcore import Rng
from chebykan.network import (MNIST_WIDTHS, ArchSpec, Sequential, build, load_network,
                              mnist_arch, param_count, save_network)

F, S = PolyKind.FIRST, PolyKind.SECOND


def test_mnist_param_counts_match_published_table():
    expected = {2: 77376, 3: 103136, 4: 128896, 5: 154656}
    for degree, count in expected.items():
        assert param_count(mnist_arch(degree)) == count


def test_param_count_closed_form_vs_built_model():
    for spec in (ArchSpec([2, 3], 3, F, layernorm_between=False),
                 ArchSpec([1, 1], 1, F, layernorm_between=False),
                 ArchSpec([4, 5, 6], 2, S, layernorm_between=True),
                 ArchSpec([3, 7, 7, 2], 0, F, layernorm_between=True)):
        model = build(spec, InitMethod.UNIFORM, Rng(0, "t"))
        assert model.flat_params.size == param_count(spec)
    assert param_count(ArchSpec([2, 3], 3, F, layernorm_between=False)) == 24
    assert param_count(ArchSpec([1, 1], 1, F, layernorm_between=False)) == 2


def test_layernorm_placement():
    model = build(mnist_arch(3), InitMethod.XAVIER, Rng(0, "t"))
    kinds = [type(l).__name__ for l in model.layers]
    assert kinds == ["ChebyKanLayer", "LayerNorm", "ChebyKanLayer", "LayerNorm",
                     "ChebyKanLayer"]
    bare = build(ArchSpec([4, 4, 4], 2, F, layernorm_between=False),
                 InitMethod.XAVIER, Rng(0, "t"))
    assert all(isinstance(l, ChebyKanLayer) for l in bare.layers)


def test_arch_string_round_trip():
    assert mnist_arch(3).arch_string() == "widths=784,32,16,10;degree=3;kind=first;ln=1"


def test_spec_validation():
    with pytest.raises(ValueError):
        ArchSpec([5], 3)
    with pytest.raises(ValueError):
        ArchSpec([2, 0], 3)
    with pytest.raises(ValueError):
        ArchSpec([2, 2], -1)


def test_a_kind_that_is_not_a_polykind_is_rejected():
    # the forward tests for SECOND and the backward for FIRST, so a string
    # kind would build first-kind bases and back-propagate second-kind ones
    for kind in ("second", "first", "bogus", None):
        with pytest.raises(ValueError, match="kind"):
            ArchSpec([2, 3, 1], 3, kind, False)
        with pytest.raises(ValueError, match="kind"):
            ChebyKanLayer(2, 3, 3, kind)


def test_forward_backward_shapes():
    spec = ArchSpec([3, 5, 2], 4, S)
    model = build(spec, InitMethod.LECUN, Rng(1, "t"))
    x = Rng(1, "x").uniform(-1, 1, (7, 3))
    y = model.forward(x)
    assert y.shape == (7, 2)
    dLdx = model.backward(np.ones((7, 2)))
    assert dLdx.shape == (7, 3)
    assert model.flat_grads.shape == model.flat_params.shape


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_without_input_grad_fills_the_same_grads(dtype):
    x = Rng(3, "x").uniform(-1, 1, (6, 3))
    g = Rng(3, "g").uniform(-1, 1, (6, 2))
    models = [build(ArchSpec([3, 4, 2], degree, kind, layernorm_between=ln),
                    InitMethod.LECUN, Rng(3, "t"), dtype=dtype)
              for degree in (0, 3) for kind in (F, S) for ln in (True, False)]
    hand = Sequential([LayerNorm(3, dtype=dtype), ChebyKanLayer(3, 2, 2, dtype=dtype)])
    hand.flat_params[:] = Rng(3, "p").uniform(-1, 1, hand.flat_params.size)
    for model in models + [hand]:
        model.forward(x)
        model.backward(g)
        full = model.flat_grads.copy()
        model.flat_grads[:] = np.nan
        assert model.backward(g, input_grad=False) is None
        assert model.flat_grads.tobytes() == full.tobytes()


def test_train_skips_only_the_first_layers_input_grad(monkeypatch):
    model = build(ArchSpec([3, 4, 4, 2], 2), InitMethod.LECUN, Rng(4, "t"))
    kans = [l for l in model.layers if isinstance(l, ChebyKanLayer)]
    seen = []
    backward = ChebyKanLayer.backward

    def spy(self, dLdy, input_grad=True):
        seen.append((kans.index(self), input_grad))
        return backward(self, dLdy, input_grad)

    monkeypatch.setattr(ChebyKanLayer, "backward", spy)
    rng = Rng(4, "d")
    ds = Dataset(features=rng.uniform(-1, 1, (8, 3)), targets=rng.uniform(-1, 1, (8, 2)))
    train(model, ds, ds, TrainConfig(epochs=1, batch_size=4))
    assert seen == [(2, True), (1, True), (0, False)] * 2


def test_train_eval_toggle_propagates():
    model = build(ArchSpec([2, 2, 2], 1), InitMethod.XAVIER, Rng(0, "t"))
    model.eval()
    assert not any(l.training for l in model.layers)
    model.train()
    assert all(l.training for l in model.layers)


def test_eval_forward_memory_is_bounded():
    # eval mode streams the basis through the contraction a block of rows at
    # a time; the whole degree-5 stack of this batch would be 6 times x.
    # evaluate scores a split with one forward, so it keeps the same bound
    model = build(mnist_arch(5, S), InitMethod.LECUN, Rng(0, "t")).eval()
    x = Rng(0, "x").uniform(-1.0, 1.0, (4096, 784))
    ds = Dataset(features=x, labels=np.arange(len(x)) % 10)
    for score in (lambda: model.forward(x), lambda: evaluate(model, ds, "classify")):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes + (8 << 20), peak


def test_per_layer_substreams_are_stable():
    # changing the last width must not disturb the first layer's draw
    a = build(ArchSpec([3, 4, 2], 2), InitMethod.NORMAL, Rng(9, "init"))
    b = build(ArchSpec([3, 4, 5], 2), InitMethod.NORMAL, Rng(9, "init"))
    np.testing.assert_array_equal(a.layers[0].coeffs, b.layers[0].coeffs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", [F, S])
@pytest.mark.parametrize("widths", [[1, 8, 1], [2, 64, 64, 1], [784, 32, 16, 10]])
def test_zero_degree_slabs_change_no_training_forward(widths, kind, dtype):
    # a degree-2 model padded to degree 4 with zero slabs w[3:] adds exact
    # zeros to each sum. The eval forward holds no such bound: its row
    # block shrinks with the degree, and BLAS may sum another block in
    # another order (2.4e-15 apart at 784 inputs over 1,500 rows in float64)
    small, big = (build(ArchSpec(widths, degree, kind), InitMethod.LECUN, Rng(5, "t"), dtype)
                  for degree in (2, 4))
    for a, b in zip(small.params(), big.params()):
        b[...] = 0
        b[:len(a)] = a  # w is degree-major, so its first slabs are degrees 0-2
    x = Rng(5, "x").uniform(-2.0, 2.0, (64, widths[0]))
    np.testing.assert_array_equal(big.forward(x), small.forward(x))


def test_save_load_round_trip(tmp_path):
    spec = ArchSpec([4, 6, 3], 3, S, layernorm_between=True)
    model = build(spec, InitMethod.HE, Rng(3, "t"))
    x = Rng(3, "x").uniform(-2, 2, (5, 4))
    y = model.forward(x)
    path = tmp_path / "net.bin"
    save_network(model, spec, path)
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").rstrip("\n")
    assert header == f"chebykan-v1 {spec.arch_string()} 3 second"
    loaded, back = load_network(path)
    assert back == spec
    np.testing.assert_array_equal(loaded.forward(x), y)
    resaved = tmp_path / "again.bin"
    save_network(loaded, back, resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("spec, init, digest", [
    (mnist_arch(3), InitMethod.XAVIER,
     "de00af61acb11922cf695cdf24bb5718c39defb6200fac25695e7145ec7ff8df"),
    (mnist_arch(5, S), InitMethod.ORTHOGONAL,
     "16a702423424cde02af84ebc542b635415c2a3a6ae640aeb8e87e01029857e84"),
])
def test_seeded_checkpoint_bytes_are_pinned(tmp_path, spec, init, digest):
    # a round trip cannot see a change to the v1 layout or to the init draws;
    # these hashes can
    path = tmp_path / "net.bin"
    save_network(build(spec, init, Rng(7, "golden")), spec, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_checkpoints_run_no_initializer(tmp_path, monkeypatch):
    spec = ArchSpec([3, 4, 2], 2, S)
    model = build(spec, InitMethod.XAVIER, Rng(0, "t"))

    def drew(*args, **kwargs):
        raise AssertionError("an initializer ran")
    monkeypatch.setattr("chebykan.network.init_coeffs", drew)
    path, again = tmp_path / "net.bin", tmp_path / "again.bin"
    save_network(model, spec, path)
    loaded, back = load_network(path)
    save_network(loaded, back, again)
    assert again.read_bytes() == path.read_bytes()
    np.testing.assert_array_equal(loaded.flat_params, model.flat_params)


def test_save_rejects_mismatched_spec(tmp_path):
    spec = ArchSpec([2, 3], 2, F, layernorm_between=False)
    other = build(ArchSpec([2, 4], 2, F, layernorm_between=False),
                  InitMethod.XAVIER, Rng(0, "t"))
    with pytest.raises(ValueError):
        save_network(other, spec, tmp_path / "x.bin")
    # same parameter count, different architecture: kind, then widths
    first_kind = build(mnist_arch(3), InitMethod.XAVIER, Rng(0, "t"))
    with pytest.raises(ValueError, match="do not match"):
        save_network(first_kind, mnist_arch(3, S), tmp_path / "kind.bin")
    model = build(ArchSpec([2, 3, 2], 1, F, layernorm_between=False),
                  InitMethod.XAVIER, Rng(0, "t"))
    with pytest.raises(ValueError, match="do not match"):
        save_network(model, ArchSpec([3, 2, 3], 1, F, layernorm_between=False),
                     tmp_path / "widths.bin")
    assert not any(tmp_path.iterdir())


def test_load_rejects_corruption(tmp_path):
    spec = ArchSpec([2, 3], 2, F, layernorm_between=False)
    model = build(spec, InitMethod.XAVIER, Rng(0, "t"))
    path = tmp_path / "net.bin"
    save_network(model, spec, path)
    blob = path.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_network(truncated)
    bad_tag = tmp_path / "tag.bin"
    bad_tag.write_bytes(b"not-a-header 1 2 3\n" + blob.split(b"\n", 1)[1])
    with pytest.raises(ValueError):
        load_network(bad_tag)



def test_layers_are_views_into_the_parameter_vector():
    model = build(ArchSpec([3, 4, 2], 2, F), InitMethod.XAVIER, Rng(0, "t"))
    kan0, ln, kan1 = model.layers
    n0, n1 = kan0.w.size, kan1.w.size
    assert model.flat_params.size == n0 + 8 + n1
    model.flat_params[:] = np.arange(model.flat_params.size)
    # each KAN block is degree-major: w[j, i, o]
    np.testing.assert_array_equal(kan0.w.ravel(), np.arange(n0))
    np.testing.assert_array_equal(ln.gamma, np.arange(n0, n0 + 4))
    np.testing.assert_array_equal(ln.beta, np.arange(n0 + 4, n0 + 8))
    np.testing.assert_array_equal(kan1.w.ravel(), np.arange(n0 + 8, n0 + 8 + n1))
    np.testing.assert_array_equal(kan0.coeffs, np.arange(n0).reshape(3, 3, 4).transpose(1, 2, 0))
    for p, view in zip(model.params(), (kan0.w, ln.gamma, ln.beta, kan1.w)):
        assert p is view
    model.flat_params[:] = Rng(0, "p").uniform(-0.5, 0.5, model.flat_params.size)
    model.flat_grads[:] = np.nan
    model.forward(Rng(0, "x").uniform(-1, 1, (5, 3)))
    model.backward(np.ones((5, 2)))
    assert np.all(np.isfinite(model.flat_grads))
    np.testing.assert_array_equal(model.flat_grads[:n0], kan0.grad_w.ravel())
    np.testing.assert_array_equal(model.flat_grads[n0 + 4:n0 + 8], ln.grad_beta)


def test_dtype_is_fixed_at_build():
    spec = ArchSpec([3, 4, 2], 3, S)
    x = Rng(2, "x").uniform(-1, 1, (5, 3))  # Rng draws are float64
    assert x.dtype == np.float64
    for dtype in (np.float64, np.float32):
        model = build(spec, InitMethod.LECUN, Rng(2, "t"), dtype=dtype)
        assert model.flat_params.dtype == model.flat_grads.dtype == dtype
        assert all(p.dtype == dtype for p in model.params())
        y = model.forward(x)
        model.flat_grads[:] = np.nan
        dLdx = model.backward(np.ones((5, 2)))
        assert y.dtype == dLdx.dtype == dtype
        assert np.isfinite(model.flat_grads).all()  # every gradient written in place
    default = build(spec, InitMethod.LECUN, Rng(2, "t"))
    assert default.flat_params.dtype == np.float64
    # a run's precision is TrainConfig's f32 switch, float64 unless set
    assert TrainConfig(f32=True).build_model().flat_params.dtype == np.float32
    assert TrainConfig().build_model().flat_params.dtype == np.float64
    with pytest.raises(TypeError):
        TrainConfig(dtype=np.float32)


def test_build_rejects_non_float_dtype():
    for dtype in (np.int32, np.int64):
        message = f"unsupported dtype {dtype}; use float32 or float64"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(ArchSpec([2, 2], 1), InitMethod.XAVIER, Rng(0, "t"), dtype=dtype)

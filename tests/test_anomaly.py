"""Anomaly mode: NaN/Inf detection with op provenance."""

import numpy as np
import pytest

from repro.analysis import (
    AnomalyError,
    OpProvenance,
    detect_anomaly,
    is_anomaly_enabled,
)
from repro.nn import Parameter, Tensor
from repro.nn.observers import registered


class TestContextManagement:
    def test_enabled_only_inside_context(self):
        assert not is_anomaly_enabled()
        with detect_anomaly():
            assert is_anomaly_enabled()
        assert not is_anomaly_enabled()

    def test_reentrant_nesting(self):
        before = registered()
        with detect_anomaly():
            with detect_anomaly():
                assert is_anomaly_enabled()
            assert is_anomaly_enabled()  # inner exit must not disable
            assert len(registered()) == len(before) + 1
        assert registered() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # log(0) on purpose
    def test_unpatches_even_after_raise(self):
        before = registered()
        with pytest.raises(AnomalyError):
            with detect_anomaly():
                Tensor([0.0]).log()
        assert registered() == before

    def test_clean_computation_unaffected(self):
        p = Parameter(np.array([0.5, -0.25]))
        with detect_anomaly():
            loss = (p * p).tanh().sum()
            loss.backward()
        reference = Parameter(np.array([0.5, -0.25]))
        ref_loss = (reference * reference).tanh().sum()
        ref_loss.backward()
        np.testing.assert_allclose(loss.data, ref_loss.data)
        np.testing.assert_allclose(p.grad, reference.grad)


class TestForwardAnomalies:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_injection_names_originating_op(self):
        # log(-1) = NaN in the forward pass; the error must carry the
        # provenance of the op that produced it.
        x = Tensor([-1.0], requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                x.log()
        err = excinfo.value
        assert err.phase == "forward"
        assert err.provenance is not None
        assert err.provenance.op == "log"
        assert "log" in str(err)
        assert "NaN" in str(err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_is_also_caught(self):
        x = Tensor([1000.0], requires_grad=True)
        with detect_anomaly():
            with pytest.raises(AnomalyError) as excinfo:
                x.exp()
        assert excinfo.value.provenance.op == "exp"

    def test_provenance_stack_points_at_user_code(self):
        x = Tensor([2.0], requires_grad=True)
        with detect_anomaly():
            y = x.sqrt()
        provenance = y._ctx
        assert isinstance(provenance, OpProvenance)
        assert provenance.op == "sqrt"
        # engine frames are filtered; our test file must remain
        assert "test_anomaly.py" in provenance.stack
        assert "tensor.py" not in provenance.stack

    def test_no_detection_outside_context(self):
        # Outside the context the engine stays permissive (and fast).
        with np.errstate(divide="ignore"):
            out = Tensor([0.0], requires_grad=True).log()
        assert np.isinf(out.data).any()


class TestBackwardAnomalies:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_backward_nan_names_originating_op(self):
        # sqrt(0) is finite forward, but d/dx sqrt = 1/(2·sqrt(x)) → Inf
        # at zero: the anomaly is born in sqrt's backward.
        x = Tensor([0.0, 4.0], requires_grad=True)
        with detect_anomaly():
            loss = x.sqrt().sum()
            with pytest.raises(AnomalyError) as excinfo:
                loss.backward()
        err = excinfo.value
        assert err.phase == "backward"
        assert err.provenance is not None
        assert err.provenance.op == "sqrt"
        assert "backward" in str(err)

    def test_backward_message_includes_creation_site(self):
        x = Tensor([0.0], requires_grad=True)
        with detect_anomaly():
            with np.errstate(divide="ignore"):
                loss = x.sqrt().sum()
                with pytest.raises(AnomalyError) as excinfo:
                    loss.backward()
        # the creating line of source must appear in the report
        assert "x.sqrt().sum()" in str(excinfo.value)

    def test_gradients_match_unpatched_engine(self):
        data = np.array([[0.3, -0.7], [1.2, 0.1]])
        p1 = Parameter(data.copy())
        with detect_anomaly():
            (p1.sigmoid() * 2.0).mean().backward()
        p2 = Parameter(data.copy())
        (p2.sigmoid() * 2.0).mean().backward()
        np.testing.assert_allclose(p1.grad, p2.grad)


class TestProvenanceFormatting:
    def test_format_with_stack(self):
        provenance = OpProvenance(op="matmul", stack='  File "m.py", line 1')
        text = provenance.format()
        assert "matmul" in text
        assert "m.py" in text

    def test_format_without_stack(self):
        assert "unavailable" in OpProvenance(op="add", stack="").format()

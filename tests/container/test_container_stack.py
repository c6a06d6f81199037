"""Unit tests for images, OCI bundles, the RunC runtime and containerd."""

import pytest

from repro.container.containerd import Containerd, ContainerdError
from repro.container.image import ContainerImage, ImageError, WasmImage
from repro.container.oci import OciBundle, OciError
from repro.container.runc import RunCError, RunCRuntime
from repro.kernel.kernel import Kernel
from repro.sim.costs import CostModel
from repro.sim.ledger import CostCategory, CostLedger


@pytest.fixture
def runc():
    ledger = CostLedger()
    kernel = Kernel(ledger=ledger, node_name="node-a")
    return RunCRuntime(kernel=kernel, ledger=ledger, cost_model=CostModel.paper_testbed())


def test_image_presets_match_paper_sizes():
    assert ContainerImage.hello_world().size_bytes == pytest.approx(76.9 * 1024 * 1024, rel=0.01)
    assert WasmImage.hello_world().size_bytes == 47_800
    assert WasmImage.resize_image().size_bytes == pytest.approx(3.19 * 1024 * 1024, rel=0.01)


def test_image_validation():
    with pytest.raises(ImageError):
        ContainerImage(name="", size_bytes=1)
    with pytest.raises(ImageError):
        ContainerImage(name="x", size_bytes=0)
    with pytest.raises(ImageError):
        WasmImage(name="x", size_bytes=-1)


def test_oci_bundle_validation():
    with pytest.raises(OciError):
        OciBundle(name="", image=ContainerImage.hello_world())
    bundle = OciBundle(name="fn", image=WasmImage.hello_world(), runtime_class="roadrunner-shim")
    assert bundle.is_wasm


def test_runc_cold_start_scales_with_image_size(runc):
    small = ContainerImage(name="small", size_bytes=10 * 1024 * 1024)
    assert runc.cold_start_time(ContainerImage.hello_world()) > runc.cold_start_time(small)


def test_runc_creates_sandbox_with_cgroup(runc):
    bundle = OciBundle(name="fn-a", image=ContainerImage.hello_world())
    sandbox = runc.create(bundle, charge_cold_start=True)
    assert sandbox.running
    assert sandbox.cgroup.memory.peak_bytes > 0
    assert runc.ledger.seconds(CostCategory.COLD_START) > 0
    sandbox.stop()
    assert not sandbox.running
    with pytest.raises(RunCError):
        sandbox.stop()


def test_runc_refuses_wasm_bundles(runc):
    bundle = OciBundle(name="fn-wasm", image=WasmImage.hello_world())
    with pytest.raises(OciError):
        runc.create(bundle)


def test_containerd_dispatches_by_runtime_class(runc):
    containerd = Containerd(runc)
    handle = containerd.start(OciBundle(name="native", image=ContainerImage.hello_world()))
    assert handle.runtime_class == "runc"
    assert handle.sandbox.running
    assert containerd.running == ["native"]
    wasm = OciBundle(name="wasm-fn", image=WasmImage.hello_world(), runtime_class="roadrunner-shim")
    with pytest.raises(ContainerdError):
        containerd.start(wasm)


def test_containerd_rejects_unknown_runtime_and_duplicates(runc):
    containerd = Containerd(runc)
    bundle = OciBundle(name="fn", image=ContainerImage.hello_world())
    containerd.start(bundle)
    with pytest.raises(ContainerdError):
        containerd.start(bundle)
    with pytest.raises(ContainerdError):
        containerd.start(
            OciBundle(name="other", image=WasmImage.hello_world(), runtime_class="unknown-shim")
        )
    with pytest.raises(ContainerdError):
        containerd.handle("missing")


def test_containerd_workflow_snapshot_and_trust(runc):
    containerd = Containerd(runc)
    for name, workflow in (("a", "wf-1"), ("b", "wf-1"), ("c", "wf-2")):
        containerd.start(
            OciBundle(name=name, image=ContainerImage.hello_world()), workflow=workflow
        )
    assert {h.name for h in containerd.snapshot("wf-1")} == {"a", "b"}
    sandbox = containerd.handle("a").sandbox
    containerd.stop("a")
    assert not sandbox.running
    assert "a" not in containerd.running
    with pytest.raises(ContainerdError):
        containerd.stop("a")

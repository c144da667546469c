"""Tests for resource specs and requirements."""

import pytest

from repro.compute.resources import ResourceRequirement, ResourceSpec


def test_spec_totals_and_accelerators():
    spec = ResourceSpec(cpu_ops_per_second=2e9, cores=4, accelerators={"gpu": 1e10})
    assert spec.has_accelerator("gpu")
    assert not spec.has_accelerator("tpu")


def test_spec_validation():
    with pytest.raises(ValueError):
        ResourceSpec(cpu_ops_per_second=0)
    with pytest.raises(ValueError):
        ResourceSpec(cores=0)
    with pytest.raises(ValueError):
        ResourceSpec(memory_mb=0)


def test_requirement_validation():
    with pytest.raises(ValueError):
        ResourceRequirement(operations=0)
    with pytest.raises(ValueError):
        ResourceRequirement(memory_mb=-1)


def test_memory_gate():
    spec = ResourceSpec(memory_mb=512)
    fits = ResourceRequirement(memory_mb=256)
    too_big = ResourceRequirement(memory_mb=1024)
    assert fits.satisfied_by(spec)
    assert not too_big.satisfied_by(spec)


def test_required_accelerator_gate():
    cpu_only = ResourceSpec()
    gpu_node = ResourceSpec(accelerators={"gpu": 1e10})
    needs_gpu = ResourceRequirement(accelerator="gpu", accelerator_required=True)
    prefers_gpu = ResourceRequirement(accelerator="gpu", accelerator_required=False)
    assert not needs_gpu.satisfied_by(cpu_only)
    assert needs_gpu.satisfied_by(gpu_node)
    assert prefers_gpu.satisfied_by(cpu_only)


def test_execution_time_uses_accelerator_when_available():
    gpu_node = ResourceSpec(cpu_ops_per_second=1e9, accelerators={"gpu": 1e10})
    requirement = ResourceRequirement(operations=1e10, accelerator="gpu")
    assert requirement.execution_time_on(gpu_node) == pytest.approx(1.0)
    cpu_node = ResourceSpec(cpu_ops_per_second=1e9)
    assert requirement.execution_time_on(cpu_node) == pytest.approx(10.0)

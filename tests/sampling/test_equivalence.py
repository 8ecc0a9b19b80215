"""Golden functional-vs-detailed equivalence (the mode-switch contract).

:func:`repro.sampling.ffwd.verify_equivalence` is the executable form of
DESIGN.md §13; these tests pin it on a tiny full-system workload plus the
property that makes nominal-tick stamping sound: checkpoint resume is
tick-shift invariant.
"""

from dataclasses import replace

import pytest

from repro.harness.scenes import SceneSession
from repro.health.recovery import resume_run
from repro.sampling.ffwd import (fast_forward, switch_fingerprint,
                                 verify_equivalence)
from repro.sampling.functional import FunctionalSim, FunctionalSimError
from repro.soc.checkpoint import CheckpointTopologyError

from tests.health.full_system import HEIGHT, WIDTH, tiny_config


def make_factory():
    return lambda: SceneSession("cube", WIDTH, HEIGHT)


@pytest.mark.slow
@pytest.mark.full_system
class TestGoldenEquivalence:
    def test_all_four_contract_checks_pass(self):
        report = verify_equivalence(tiny_config(num_frames=4),
                                    make_factory(), ffwd_frames=2)
        assert report["checks"] == {
            "trace_identity": True,
            "boundary_fb_crc": True,
            "final_fb_crc": True,
            "post_switch_fingerprint": True,
        }
        assert report["ok"] is True
        # Provenance: the snapshots really came from different engines.
        assert report["checkpoint_modes"] == ["functional", "detailed"]

    def test_resume_is_tick_shift_invariant(self):
        # The property nominal-tick stamping rests on: the same snapshot
        # restored at a shifted tick origin produces a bit-identical
        # detailed phase (only absolute tick origins differ, which the
        # fingerprint deliberately excludes).
        config = tiny_config(num_frames=3)
        factory = make_factory()
        sim = FunctionalSim(config, factory().frame, render="none")
        sim.run(2)
        checkpoint = sim.checkpoint()
        shifted = replace(checkpoint, tick=checkpoint.tick + 37_777)

        session = factory()
        soc_a, res_a = resume_run(checkpoint, config, session.frame,
                                  session.framebuffer_address)
        session = factory()
        soc_b, res_b = resume_run(shifted, config, session.frame,
                                  session.framebuffer_address)
        assert switch_fingerprint(soc_a, res_a) \
            == switch_fingerprint(soc_b, res_b)
        # The shift does reach the clock: absolute end ticks differ.
        assert res_b.end_tick - res_a.end_tick == 37_777


@pytest.mark.full_system
class TestFastForwardValidation:
    @pytest.mark.parametrize("ffwd", [0, 3, 7, -1])
    def test_ffwd_frames_must_leave_detailed_frames(self, ffwd):
        with pytest.raises(FunctionalSimError):
            fast_forward(tiny_config(num_frames=3), make_factory(), ffwd)


class TestFunctionalSimContract:
    def config(self, num_frames=3):
        return tiny_config(num_frames=num_frames)

    def frame_source(self):
        return SceneSession("cube", WIDTH, HEIGHT).frame

    def test_render_policy_validated(self):
        with pytest.raises(FunctionalSimError):
            FunctionalSim(self.config(), self.frame_source(),
                          render="sometimes")

    def test_cannot_run_backwards(self):
        sim = FunctionalSim(self.config(), self.frame_source(),
                            render="none")
        sim.run(2)
        with pytest.raises(FunctionalSimError):
            sim.run(1)

    def test_cannot_run_past_the_configured_frames(self):
        sim = FunctionalSim(self.config(), self.frame_source(),
                            render="none")
        with pytest.raises(FunctionalSimError):
            sim.run(4)

    def test_checkpoint_at_frame_zero_rejected(self):
        sim = FunctionalSim(self.config(), self.frame_source(),
                            render="none")
        with pytest.raises(FunctionalSimError):
            sim.checkpoint()

    def test_fb_crc_requires_a_rendered_frame(self):
        sim = FunctionalSim(self.config(), self.frame_source(),
                            render="none")
        sim.run(1)
        with pytest.raises(FunctionalSimError):
            sim.fb_crc()

    def test_checkpoints_are_nominal_tick_stamped_functional_mode(self):
        config = self.config()
        sim = FunctionalSim(config, self.frame_source(), render="none")
        sim.run(2)
        checkpoint = sim.checkpoint()
        assert checkpoint.mode == "functional"
        assert checkpoint.frame_index == 2
        assert checkpoint.tick == 2 * config.gpu_frame_period_ticks

    def test_restore_refuses_foreign_topology(self):
        from repro.common.config import DRAMConfig
        from repro.soc.soc import preset_topology
        config = self.config()
        sim = FunctionalSim(config, self.frame_source(), render="none")
        sim.run(1)
        checkpoint = sim.checkpoint()
        other = replace(config, topology=preset_topology(
            "BAS", dram=DRAMConfig(channels=1), gpu=config.topology.gpu))
        with pytest.raises(CheckpointTopologyError):
            FunctionalSim.from_checkpoint(checkpoint, other,
                                          self.frame_source())

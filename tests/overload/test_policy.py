"""Unit tests for OverloadConfig validation and OverloadPolicy decisions."""

import math

import pytest

from repro.overload import OverloadConfig, OverloadPolicy


class TestConfig:
    def test_defaults_are_all_off(self):
        config = OverloadConfig()
        assert not config.enabled
        assert not config.bounded

    def test_any_knob_enables(self):
        assert OverloadConfig(deadline_s=1e-3).enabled
        assert OverloadConfig(admission="codel", codel_target_s=1e-4).enabled
        assert OverloadConfig(dsa_queue_limit=8).enabled
        assert OverloadConfig(cpu_queue_limit=8).enabled
        assert OverloadConfig(brownout_factor=0.5).enabled

    def test_bounded_means_any_queue_limit(self):
        assert OverloadConfig(dsa_queue_limit=8).bounded
        assert OverloadConfig(cpu_queue_limit=8).bounded
        assert not OverloadConfig(deadline_s=1e-3).bounded

    def test_codel_defaults_derive_from_deadline(self):
        config = OverloadConfig(deadline_s=1e-3, admission="codel")
        assert config.resolved_target_s() == pytest.approx(2e-4)
        assert config.resolved_interval_s() == pytest.approx(8e-4)

    def test_explicit_codel_knobs_win(self):
        config = OverloadConfig(deadline_s=1e-3, admission="codel",
                                codel_target_s=5e-5, codel_interval_s=1e-3)
        assert config.resolved_target_s() == 5e-5
        assert config.resolved_interval_s() == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadConfig(admission="lifo")
        with pytest.raises(ValueError):
            OverloadConfig(brownout_factor=0.0)
        with pytest.raises(ValueError):
            OverloadConfig(brownout_factor=1.5)
        with pytest.raises(ValueError):
            OverloadConfig(admission="codel")  # no deadline, no target


class TestPolicy:
    def test_no_deadline_means_infinite(self):
        policy = OverloadPolicy(OverloadConfig(dsa_queue_limit=4))
        assert policy.deadline_for(1.5) == math.inf
        assert not policy.expired(1e9, policy.deadline_for(1.5))

    def test_deadline_is_absolute(self):
        policy = OverloadPolicy(OverloadConfig(deadline_s=1e-3))
        assert policy.deadline_for(2.0) == pytest.approx(2.001)
        assert not policy.expired(2.0009, 2.001)
        assert policy.expired(2.001, 2.001)

    def test_shed_expired_off_never_sheds(self):
        policy = OverloadPolicy(OverloadConfig(deadline_s=1e-3,
                                               shed_expired=False))
        assert not policy.expired(100.0, policy.deadline_for(0.0))

    def test_admission_none_always_admits(self):
        policy = OverloadPolicy(OverloadConfig(deadline_s=1e-3))
        policy.observe("cpu", 0.0, 1.0)  # ignored: no controllers
        assert policy.admit(10.0)
        assert policy.summary()["admission"] == "none"

    def test_codel_rejects_on_standing_queue(self):
        policy = OverloadPolicy(OverloadConfig(deadline_s=1e-3,
                                               admission="codel"))
        target = policy.config.resolved_target_s()
        interval = policy.config.resolved_interval_s()
        policy.observe("cpu", 0.0, 10 * target)
        assert policy.admit(0.5 * interval)  # not standing for an interval yet
        assert not policy.admit(interval)
        assert policy.summary()["stations"]["cpu"]["shed"] == 1

    def test_brownout_needs_factor_and_hot_ewma(self):
        config = OverloadConfig(deadline_s=1e-3, admission="codel",
                                brownout_factor=0.8)
        policy = OverloadPolicy(config)
        assert not policy.brownout(0.0)  # ewma still cold
        for _ in range(50):
            policy.observe("dsa", 0.0, 10 * config.resolved_target_s())
        assert policy.brownout(0.0)

    def test_brownout_disabled_at_factor_one(self):
        policy = OverloadPolicy(OverloadConfig(deadline_s=1e-3,
                                               admission="codel"))
        for _ in range(50):
            policy.observe("dsa", 0.0, 1.0)
        assert not policy.brownout(0.0)

    def test_untenanted_policy_ignores_class_and_tags(self):
        # Replication hops carry a tenant tag and a class even when no
        # tenants are named: the untenanted policy keeps one deadline and
        # its summary keeps only the untenanted keys.
        config = OverloadConfig(deadline_s=1e-3, admission="codel",
                                brownout_factor=0.8)
        policy = OverloadPolicy(config)
        for klass in (None, "latency", "standard", "batch", "other"):
            assert policy.deadline_for(2.0, klass) == 2.0 + 1e-3
        for _ in range(50):
            policy.observe("dsa", 0.0, 10 * config.resolved_target_s(),
                           "replication")
        assert policy.brownout(0.0, "replication")
        assert set(policy.summary()) == {
            "deadline_s", "shed_expired", "admission", "dsa_queue_limit",
            "cpu_queue_limit", "brownout_factor", "stations"}

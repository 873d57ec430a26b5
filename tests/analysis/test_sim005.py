"""SIM005: wall-clock / global-random values must not reach the scheduler."""


class TestPositive:
    def test_wall_clock_into_push_fires(self, reported):
        findings = reported(
            "SIM005",
            """\
            import time

            def kickoff(queue):
                deadline = time.time() + 5.0
                queue.push(deadline, 'boot')
            """,
        )
        assert len(findings) == 1
        assert "event-queue timestamp" in findings[0].message

    def test_datetime_now_fires(self, reported):
        assert reported(
            "SIM005",
            """\
            import datetime

            def kickoff(queue):
                queue.push(datetime.datetime.now().timestamp(), 'boot')
            """,
        )

    def test_global_random_into_fault_plan_seed_fires(self, reported):
        findings = reported(
            "SIM005",
            """\
            import random

            def chaos():
                return FaultPlan(random.randint(0, 9))
            """,
        )
        assert len(findings) == 1
        assert "fault-plan seed" in findings[0].message

    def test_wall_clock_into_rng_seed_fires(self, reported):
        assert reported(
            "SIM005",
            """\
            import random
            import time

            def build():
                return random.Random(time.time())
            """,
        )

    def test_laundered_through_helper_still_fires(self, reported):
        assert reported(
            "SIM005",
            """\
            import time

            def _jitter(base):
                return base + time.time() / 1000.0

            def schedule(queue, base):
                queue.push(_jitter(base), 'evt')
            """,
        )

    def test_wall_clock_pushed_in_a_match_case_fires(self, reported):
        findings = reported(
            "SIM005",
            """\
            import time

            def kickoff(queue, kind):
                match kind:
                    case 'boot':
                        queue.push(time.time() + 5, 'boot')
            """,
        )
        assert len(findings) == 1
        assert "event-queue timestamp" in findings[0].message

    def test_wall_clock_pushed_in_a_nested_class_body_fires(self, reported):
        findings = reported(
            "SIM005",
            """\
            import time

            def kickoff(queue):
                class Boot:
                    queue.push(time.time() + 5, 'boot')
                return Boot
            """,
        )
        assert len(findings) == 1
        assert "event-queue timestamp" in findings[0].message

    def test_wall_clock_pushed_in_a_lambda_body_fires(self, reported):
        findings = reported(
            "SIM005",
            """\
            import time

            def kickoff(queue):
                return lambda: queue.push(time.time() + 5, 'boot')
            """,
        )
        assert len(findings) == 1
        assert "event-queue timestamp" in findings[0].message


class TestNegative:
    def test_sim_clock_is_clean(self, reported):
        assert not reported(
            "SIM005",
            """\
            def kickoff(queue, clock):
                queue.push(clock.now_s() + 5.0, 'boot')
            """,
        )

    def test_seeded_component_rng_is_clean(self, reported):
        # ``self._rng`` is a held, seeded Random — not the global module.
        assert not reported(
            "SIM005",
            """\
            class Chaos:
                def plan(self):
                    return FaultPlan(self._rng.randint(0, 9))
            """,
        )

    def test_literal_seed_is_clean(self, reported):
        assert not reported(
            "SIM005",
            """\
            def chaos():
                return FaultPlan(seed=7)
            """,
        )

    def test_tainted_payload_position_is_not_a_timestamp(self, reported):
        # Only the ``when``/seed positions are sinks; a wall-clock value
        # in the *payload* is SIM002's business, not a scheduling hazard.
        assert not reported(
            "SIM005",
            """\
            import time

            def log_tick(queue, clock):
                queue.push(clock.now_s(), time.time())
            """,
        )

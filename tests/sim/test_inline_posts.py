"""The inline fast-path posts in ``Simulator.timeout`` and
``Event.succeed`` hand over to the instrumented path.

On the fast path both bump ``_seq`` and file the event themselves.
Once an observer process appears mid-run, every later post must go
through ``_post_slow`` instead: an observer's own timeouts and
succeeded events are tagged and counted in ``_obs_count`` (so the run
still ends at the model's last event), and under ``sanitize=True``
every timeout, pooled ones included, carries its ``seq`` in the
sanitizer's provenance.
"""

from repro.sim.engine import Simulator

STEPS = 40
OBSERVER_AT = 15       # model iteration that starts the observer
OBS_PERIOD = 13


def _run(with_observer: bool):
    sim = Simulator()
    obs_posts = []     # (tagged, obs_count delta) per observer post
    pooled = []        # was a recycled timeout ready for the observer?
    model_tags = []    # model posts made after the observer started

    def observer():
        # Finite, but it outlives the model: if its posts went
        # untagged, the run would end at its last tick instead.
        for _ in range(4 * STEPS):
            pooled.append(bool(sim._pool_to))
            before = sim._obs_count
            tick = sim.timeout(OBS_PERIOD)
            obs_posts.append((tick._observer, sim._obs_count - before))
            before = sim._obs_count
            ping = sim.event()
            ping.succeed()
            obs_posts.append((ping._observer, sim._obs_count - before))
            yield tick

    def model():
        for i in range(STEPS):
            if i == OBSERVER_AT and with_observer:
                sim.process(observer(), name="sampler", observer=True)
            done = sim.event()
            # no reference kept, so the timeout is recycled
            yield sim.timeout(7 + i % 5)
            done.succeed(i)
            yield done
            if i > OBSERVER_AT and with_observer:
                model_tags.append(done._observer)

    sim.process(model())
    assert not sim._instrumented
    end = sim.run()
    return sim, end, obs_posts, model_tags, pooled


def test_mid_run_observer_posts_are_tagged_and_counted():
    plain, plain_end, _, _, _ = _run(False)
    sim, end, obs_posts, model_tags, pooled = _run(True)
    assert sim._instrumented and not plain._instrumented
    # the model keeps the timeout pool warm, so most of the observer's
    # timeouts take the pooled branch of timeout()
    assert pooled.count(True) > 5
    assert obs_posts == [(True, 1)] * len(obs_posts)
    assert model_tags and not any(model_tags)
    # the run stops at the model's last event, as without the observer
    assert end == plain_end
    assert sim._seq > plain._seq


def test_sanitized_timeouts_carry_seq_provenance():
    # Pooling on as well, so the timeouts come from the freelist and
    # take the pooled branch of timeout() into _post_slow.
    sim = Simulator(sanitize=True, pooling=True)
    seen = []
    pooled = []

    def body():
        for d in (0, 5, 0, 2_000, 300_000):
            # Two unreferenced timeouts: the first is back in the pool
            # once the second fires.
            yield sim.timeout(1)
            yield sim.timeout(1)
            pooled.append(bool(sim._pool_to))
            to = sim.timeout(d)
            seen.append((to, sim._seq))
            yield to
        ev = sim.event()
        ev.succeed()
        seen.append((ev, sim._seq))
        yield ev

    sim.process(body())
    sim.run()
    assert pooled == [True] * 5
    san = sim.sanitizer
    for event, seq in seen:
        prov = san.provenance(event)
        assert prov is not None and prov.seq == seq
        assert prov.scheduled_ns is not None

"""Figure 12: read throughput over time across an access revocation.

Paper: a reader starts on the BypassD interface; when another process
opens the file in buffered mode the kernel revokes direct access and
the reader transparently continues on the kernel interface at a lower
throughput.
"""


def test_fig12(experiment):
    table = experiment("fig12")
    points = [(t, v) for t, v in
              zip(table.column("Time (ms)"),
                  table.column("Throughput (K IOPS)"))]
    assert len(points) >= 20
    revoke_ms = 10.0
    # Skip the setup transient (open + fallocate fill the first windows).
    pre = [v for t, v in points if 2.0 <= t < revoke_ms - 1]
    post = [v for t, v in points if t > revoke_ms + 1]
    pre_mean = sum(pre) / len(pre)
    post_mean = sum(post) / len(post)
    # The process keeps running (no zeros after the switch)...
    assert min(post) > 0
    # ...but at kernel-interface throughput: a clear, stable drop.
    assert post_mean < 0.8 * pre_mean
    assert pre_mean / post_mean < 3.0  # same order of magnitude
    # Both phases are internally steady.
    assert max(pre) - min(pre) < 0.25 * pre_mean
    assert max(post) - min(post) < 0.25 * post_mean

"""Named deterministic random streams."""


from repro.sim import RandomStreams


def test_same_seed_same_stream():
    a = RandomStreams(7).stream("x").random()
    b = RandomStreams(7).stream("x").random()
    assert a == b


def test_different_names_independent():
    rs = RandomStreams(7)
    xs = [rs.stream("a").random() for _ in range(5)]
    # Drawing from "b" must not perturb "a"'s sequence.
    rs2 = RandomStreams(7)
    ys = []
    for i in range(5):
        rs2.stream("b").random()
        ys.append(rs2.stream("a").random())
    assert xs == ys


def test_stream_cached_not_reseeded():
    rs = RandomStreams(1)
    s1 = rs.stream("s")
    s2 = rs.stream("s")
    assert s1 is s2
    a, b = s1.random(), s2.random()
    assert a != b  # sequential draws, not a reset

from hypothesis import settings, strategies as st

from morseadic import BiSeq, EpSeq

settings.register_profile("default", deadline=None)
settings.load_profile("default")

bits = st.integers(0, 1)


@st.composite
def ep_seqs(draw, max_pre: int = 8, max_per: int = 6) -> EpSeq:
    pre = draw(st.lists(bits, max_size=max_pre))
    per = draw(st.lists(bits, min_size=1, max_size=max_per))
    return EpSeq(tuple(pre), tuple(per))


@st.composite
def seq_pairs(draw) -> tuple[EpSeq, EpSeq]:
    """Two points that are cofinal (the second keeps a tail of the
    first), share a period length without being cofinal, or are drawn
    independently."""
    x = draw(ep_seqs())
    head = tuple(draw(st.lists(bits, max_size=8)))
    kind = draw(st.sampled_from(("cofinal", "same-length", "independent")))
    if kind == "cofinal":
        j = draw(st.integers(0, len(x.preperiod) + len(x.period)))
        tail = x.preperiod[j:] if j <= len(x.preperiod) else ()
        rot = max(0, j - len(x.preperiod))
        return x, EpSeq(head + tail, x.period[rot:] + x.period[:rot])
    if kind == "same-length":
        per = draw(st.lists(bits, min_size=len(x.period), max_size=len(x.period)))
        return x, EpSeq(head, tuple(per))
    return x, draw(ep_seqs())


@st.composite
def bi_seqs(draw) -> BiSeq:
    return BiSeq(draw(ep_seqs()), draw(ep_seqs()))


small_ints = st.integers(-(2**12), 2**12)

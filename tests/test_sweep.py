import copy
import dataclasses
import pickle

import pytest

from sweepkit import (
    DyckPath,
    ENWord,
    InconsistentPair,
    NotFuss,
    SWWord,
    area,
    bipartite_invert,
    bounce,
    cobounce,
    en_word,
    make_frame,
    parse_path,
    rank_complement,
    ranks,
    steps_to_sw,
    sw_word,
    sweep,
)
from helpers import (
    FIG_EN,
    FIG_FRAME,
    FIG_RANK_SEQUENCE,
    FIG_SW,
    FIG_VISITING_SW,
    FIG_WORD,
    coprime_frames,
    frame_paths,
)
from sweepkit.oracle import oracle_bipartite_invert, oracle_invert_sweep


def fig_path():
    return parse_path(make_frame(*FIG_FRAME), FIG_WORD)


class TestWords:
    def test_golden(self):
        path = fig_path()
        assert sw_word(path).letters == FIG_SW
        assert en_word(path).letters == FIG_EN

    def test_strip(self):
        path = parse_path(make_frame(3, 1), "NEEE")
        assert sw_word(path).letters == "SWWW"
        assert en_word(path).letters == "EEEN"

    def test_small(self):
        path = parse_path(make_frame(3, 2), "NNEEE")
        assert sw_word(path).letters == "SWSWW"

    def test_sw_word_is_valid_path_word(self):
        with pytest.raises(Exception):
            SWWord(make_frame(3, 2), "WSSWW")

    def test_sw_word_rejects_other_letters(self):
        # N/E words of the right shape, and mixtures, used to pass through.
        for letters in ("NEEE", "SEEE", "SWWE", "swww", "S WW"):
            with pytest.raises(ValueError):
                SWWord(make_frame(3, 1), letters)

    def test_as_path_is_the_validated_path(self):
        word = SWWord(make_frame(*FIG_FRAME), FIG_SW)
        assert word.as_path() == sweep(fig_path())
        # Equality, hashing and repr read the fields alone.
        twin = SWWord(make_frame(*FIG_FRAME), FIG_SW)
        assert twin == word and hash(twin) == hash(word)
        assert repr(word) == f"SWWord(frame={word.frame!r}, letters={FIG_SW!r})"

    def test_kept_path_stays_out_of_pickle_and_copy(self):
        # Checked or unchecked, a word pickles and copies its fields alone; a carried
        # word rebuilds the same path on demand.
        for word in (SWWord(make_frame(*FIG_FRAME), FIG_SW), sw_word(fig_path())):
            for carried in (pickle.loads(pickle.dumps(word)), copy.copy(word),
                            copy.deepcopy(word)):
                assert carried == word and set(vars(carried)) == {"frame", "letters"}
                assert carried.as_path() == word.as_path() == sweep(fig_path())

    def test_en_word_rejects_other_letters(self):
        # parse_path upper-cases, so only the letter check rejects these.
        for letters in ("eeeN", "EEEn", "WEEN", "EE N"):
            with pytest.raises(ValueError):
                ENWord(make_frame(3, 1), letters)

    def test_en_word_validation(self):
        # A final E can never carry the largest rank.
        with pytest.raises(Exception):
            ENWord(make_frame(3, 2), "ENNEE")

    def test_rank_identities(self):
        # i-th North end rank = i-th South start rank + m, and the East
        # analogue with -n, on every path of every small frame; and the
        # exact words: the letters sorted by start rank (sweep, sw_word) or
        # by end rank (en_word), whichever of them a path is asked first.
        for frame in coprime_frames(11):
            m, n = frame.m, frame.n
            for path in frame_paths(m, n):
                starts = ranks(path)
                ends = [r + (m if ch == "N" else -n) for r, ch in zip(starts, path.steps)]
                by_start = "".join(ch for _, ch in sorted(zip(starts, path.steps)))
                by_end = "".join(ch for _, ch in sorted(zip(ends, path.steps)))
                assert sweep(path).steps == by_start
                assert sw_word(path).letters == steps_to_sw(by_start)
                assert en_word(path).letters == by_end
                # frame_paths is cached, so its paths may hold rank words already.
                fresh = DyckPath(frame, path.steps)
                assert en_word(fresh).letters == by_end
                assert sweep(fresh).steps == by_start
                assert sw_word(fresh).letters == steps_to_sw(by_start)
                s_ranks = sorted(r for r, ch in zip(starts, path.steps) if ch == "N")
                n_ranks = sorted(r for r, ch in zip(ends, path.steps) if ch == "N")
                w_ranks = sorted(r for r, ch in zip(starts, path.steps) if ch == "E")
                e_ranks = sorted(r for r, ch in zip(ends, path.steps) if ch == "E")
                assert n_ranks == [r + m for r in s_ranks]
                assert e_ranks == [r - n for r in w_ranks]

    def test_kept_rank_words_stay_out_of_value_semantics(self):
        frame = make_frame(*FIG_FRAME)
        swept, never = DyckPath(frame, FIG_WORD), DyckPath(frame, FIG_WORD)
        sweep(swept)
        assert "_rank_words" in vars(swept) and "_rank_words" not in vars(never)
        assert swept == never and hash(swept) == hash(never)
        assert repr(swept) == repr(never) and swept.to_json() == never.to_json()
        replaced = dataclasses.replace(swept)
        assert replaced == never and "_rank_words" not in vars(replaced)
        assert pickle.loads(pickle.dumps(swept)) == never
        # Pickle and copy carry the fields only, not the kept rank words.
        assert pickle.dumps(swept) == pickle.dumps(never)
        for carried in (pickle.loads(pickle.dumps(swept)), copy.copy(swept),
                        copy.deepcopy(swept)):
            assert carried == never and "_rank_words" not in vars(carried)
        # A new image each call: no path keeps another path alive.
        assert sweep(swept) is not sweep(swept)


class TestSweep:
    def test_golden_image(self):
        image = sweep(fig_path())
        assert steps_to_sw(image.steps) == FIG_SW
        assert area(image) == 8

    def test_fixed_point_on_strip(self):
        path = parse_path(make_frame(3, 1), "NEEE")
        assert sweep(path) == path

    def test_small(self):
        frame = make_frame(3, 2)
        assert sweep(parse_path(frame, "NENEE")).steps == "NNEEE"

    def test_complement_word_mirror(self):
        # SW word of the swept complement = reversed EN word, N->S, E->W.
        flip = str.maketrans("NE", "SW")
        golden = fig_path()
        assert sw_word(rank_complement(golden)).letters == FIG_EN[::-1].translate(flip)
        for frame in coprime_frames(11):
            for path in frame_paths(frame.m, frame.n):
                mirrored = en_word(path).letters[::-1].translate(flip)
                assert sw_word(rank_complement(path)).letters == mirrored


class TestBipartiteInvert:
    def test_golden(self):
        frame = make_frame(*FIG_FRAME)
        path, rs = bipartite_invert(SWWord(frame, FIG_SW), ENWord(frame, FIG_EN))
        assert path.steps == FIG_WORD
        assert steps_to_sw(path.steps) == FIG_VISITING_SW
        assert rs.values == FIG_RANK_SEQUENCE

    def test_strip(self):
        frame = make_frame(3, 1)
        path, _ = bipartite_invert(SWWord(frame, "SWWW"), ENWord(frame, "EEEN"))
        assert path.steps == "NEEE"

    def test_roundtrip(self):
        for frame in coprime_frames(14):
            for path in frame_paths(frame.m, frame.n):
                back, rs = bipartite_invert(sw_word(path), en_word(path))
                assert back == path
                assert rs.values == tuple(sorted(ranks(path)))

    def test_inconsistent_pair(self):
        frame = make_frame(3, 2)
        # Both words are individually valid but belong to different paths
        # whose pairing closes early.
        sw = sw_word(parse_path(frame, "NNEEE"))
        en = en_word(parse_path(frame, "NENEE"))
        with pytest.raises(InconsistentPair, match="revisits position 1 before closing"):
            bipartite_invert(sw, en)

    def test_matches_reference_on_every_pair(self):
        # Every (SW, EN) pair of every small frame, matched or not: the same
        # path and rank sequence, or the same error class and message.
        def outcome(invert, sw, en):
            try:
                return invert(sw, en)
            except InconsistentPair as exc:
                return type(exc), str(exc)

        pairs = 0
        for frame in coprime_frames(10):
            paths = frame_paths(frame.m, frame.n)
            ens = [en_word(path) for path in paths]
            for path in paths:
                sw = sw_word(path)
                for en in ens:
                    pairs += 1
                    expected = outcome(oracle_bipartite_invert, sw, en)
                    assert outcome(bipartite_invert, sw, en) == expected
        assert pairs == 903

    def test_frame_mismatch(self):
        sw = sw_word(parse_path(make_frame(3, 2), "NNEEE"))
        en = en_word(parse_path(make_frame(3, 1), "NEEE"))
        with pytest.raises(InconsistentPair):
            bipartite_invert(sw, en)


class TestBounce:
    def test_small(self):
        frame = make_frame(3, 2)
        assert area(oracle_invert_sweep(parse_path(frame, "NNEEE"))) == 0
        assert area(oracle_invert_sweep(parse_path(frame, "NENEE"))) == 1
        assert bounce(parse_path(frame, "NNEEE")) == 0
        assert bounce(parse_path(frame, "NENEE")) == 1

    def test_strip(self):
        assert bounce(parse_path(make_frame(3, 1), "NEEE")) == 0

    def test_fuss_requires_fuss_frame(self):
        with pytest.raises(NotFuss):
            bounce(fig_path())

    def test_cobounce_requires_fuss_frame(self):
        # The NotFuss comes from bounce: cobounce has no check of its own.
        with pytest.raises(NotFuss):
            cobounce(fig_path())

    def test_strategies_agree(self):
        for frame in coprime_frames(11):
            if frame.fuss is None:
                continue
            for path in frame_paths(frame.m, frame.n):
                assert bounce(path) == area(oracle_invert_sweep(path))

    def test_preimage_bytes_match_the_oracle_on_both_signs(self):
        # bounce reads the E flags of the walk's bytes, with no preimage path built.
        checked = {+1: 0, -1: 0}
        for frame in coprime_frames(16):
            if frame.fuss is None:
                continue
            for path in frame_paths(frame.m, frame.n):
                assert bounce(path) == area(oracle_invert_sweep(path)), (frame, path.steps)
                checked[frame.fuss.sign] += 1
        assert checked == {+1: 1060, -1: 938}


class TestBruteInvert:
    def test_small(self):
        frame = make_frame(3, 2)
        assert oracle_invert_sweep(parse_path(frame, "NNEEE")).steps == "NENEE"

    def test_strip_identity(self):
        path = parse_path(make_frame(3, 1), "NEEE")
        assert oracle_invert_sweep(path) == path

    def test_golden_pair(self):
        image = sweep(fig_path())
        assert oracle_invert_sweep(image) == fig_path()

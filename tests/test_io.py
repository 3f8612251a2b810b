"""File format, CLI, and experiment harness tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grinblat import cli
from grinblat.construct import Telemetry, solve
from grinblat.core import Instance, Matching, Partition, kernel
from grinblat.errors import ParseError
from grinblat.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    derive_seed,
    run_experiment,
)
from grinblat.formats import (
    parse_instance,
    parse_matching,
    write_instance,
    write_matching,
)
from grinblat.gen import gen_lower_bound_family, gen_random_hypothesis


class TestInstanceFormat:
    def test_round_trip(self):
        inst = gen_random_hypothesis(12, 0, seed=4)
        assert parse_instance(write_instance(inst)) == inst

    def test_round_trip_is_canonical(self):
        inst = Instance(5, [Partition([(3, 1), (0, 4)])])
        data = write_instance(inst)
        assert data == write_instance(parse_instance(data))

    def test_comments_and_blank_lines(self):
        text = "# header comment\ngrinblat 1 1 4\n\nrel 0 1  # one class\n0 1\n"
        inst = parse_instance(text)
        assert inst.n == 1 and inst.relations[0].classes == ((0, 1),)

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("grinblat 2 1 4\nrel 0 0\n")
        assert exc.value.line_no == 1

    def test_duplicate_element_line_number(self):
        text = "grinblat 1 1 4\nrel 0 2\n0 1\n1 2\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line_no == 4

    def test_out_of_range_element(self):
        with pytest.raises(ParseError):
            parse_instance("grinblat 1 1 3\nrel 0 1\n0 7\n")

    def test_class_too_small(self):
        with pytest.raises(ParseError):
            parse_instance("grinblat 1 1 3\nrel 0 1\n0\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError):
            parse_instance("grinblat 1 1 4\nrel 0 1\n0 1\n2 3\n")

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse_instance("grinblat 1 2 4\nrel 0 1\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_instance("")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_instance("grinblat 1 1 4\nrel 0 1\n0 x\n")

    def test_invalid_utf8_names_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_instance(b"grinblat 1 1 4\nrel 0 1\n0 \xff1\n")
        assert exc.value.line_no == 3


def _parse_or_parse_error(data: bytes) -> None:
    try:
        parse_instance(data)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_parse_instance_fuzzed_bytes_raise_only_parse_error(data):
    _parse_or_parse_error(data)


# tokens of the format, so that fuzzed input gets past the header
_TOKENS = [b"grinblat 1 ", b"rel ", b"0", b"1", b"2", b"3", b"-1", b"99", b"x",
           b" ", b"\n", b"\r", b"\t", b"#", b"\xff", b"\xc3\xa9", b"\x00"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS)).map(b"".join))
def test_parse_instance_fuzzed_tokens_raise_only_parse_error(data):
    _parse_or_parse_error(data)


_DEFECTS = ["duplicate", "same_line_duplicate", "size_one", "out_of_range", "non_integer", "missing_line"]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4), st.integers(-3, 6), st.integers(0, 10**6),
    st.sampled_from(_DEFECTS), st.booleans(), st.data(),
)
def test_parse_instance_reports_injected_defect(n, c, seed, defect, comment, data):
    # one defect in a valid instance text; the ParseError must name the
    # defect's own line with the exact message
    inst = gen_random_hypothesis(n, c, seed)
    ground = inst.ground_size
    lines = write_instance(inst).decode().split("\n")
    # line numbers (1-based) of each relation's class lines
    class_lines, no = [], 2
    for rel in inst.relations:
        k = len(rel.classes)
        class_lines.append(list(range(no + 1, no + 1 + k)))
        no += 1 + k
    i = data.draw(st.integers(0, n - 1))
    if defect == "missing_line":
        i = n - 1
    own = class_lines[i]
    if defect == "duplicate" and len(own) < 2:
        defect = "same_line_duplicate"
    at = data.draw(st.sampled_from(own))
    tokens = lines[at - 1].split()
    if defect == "duplicate":
        first, second = sorted(data.draw(st.lists(st.sampled_from(own), min_size=2, max_size=2, unique=True)))
        e = int(data.draw(st.sampled_from(lines[first - 1].split())))
        second_tokens = lines[second - 1].split()
        second_tokens.insert(data.draw(st.integers(0, len(second_tokens))), str(e))
        lines[second - 1] = " ".join(second_tokens)
        want = (second, f"duplicate element {e} (also in line {first})")
    elif defect == "same_line_duplicate":
        pos = data.draw(st.integers(0, len(tokens) - 1))
        e = int(tokens[pos])
        tokens.insert(data.draw(st.integers(pos + 1, len(tokens))), str(e))
        lines[at - 1] = " ".join(tokens)
        want = (at, f"duplicate element {e} (also in same class)")
    elif defect == "size_one":
        lines[at - 1] = tokens[0]
        want = (at, "class size 1 < 2")
    elif defect == "out_of_range":
        pos = data.draw(st.integers(0, len(tokens) - 1))
        bad = data.draw(st.one_of(st.integers(ground, ground + 5), st.integers(-5, -1)))
        tokens[pos] = str(bad)
        lines[at - 1] = " ".join(tokens)
        want = (at, f"element {bad} outside ground set of size {ground}")
    elif defect == "non_integer":
        pos = data.draw(st.integers(0, len(tokens) - 1))
        tokens[pos] = data.draw(st.sampled_from(["x", "1.5", "--2", "0x1"]))
        lines[at - 1] = " ".join(tokens)
        want = (at, f"non-integer element: {tokens!r}")
    else:
        # cut the file after the last relation's header or one of its class
        # lines other than the last
        keep = data.draw(st.sampled_from([own[0] - 1] + own[:-1]))
        lines = lines[:keep]
        want = (keep, f"missing class line in relation {n - 1}")
    if comment:
        lines[0] += "  # header comment"
    with pytest.raises(ParseError) as exc:
        parse_instance("\n".join(lines) + "\n")
    assert (exc.value.line_no, str(exc.value)) == (want[0], f"line {want[0]}: {want[1]}")


_REWRITES = ["shuffle_lines", "shuffle_elements", "whitespace", "crlf", "comments", "leading_zeros"]


def _rewrite(inst: Instance, rewrites: set, rnd) -> str:
    """write_instance's text for inst with the chosen non-canonical rewrites."""
    lines = write_instance(inst).decode().split("\n")[:-1]
    out, at = [lines[0]], 1
    for rel in inst.relations:
        k = len(rel.classes)
        out.append(lines[at])
        block = [line.split() for line in lines[at + 1 : at + 1 + k]]
        at += 1 + k
        if "shuffle_lines" in rewrites:
            rnd.shuffle(block)
        for toks in block:
            if "shuffle_elements" in rewrites:
                rnd.shuffle(toks)
            if "leading_zeros" in rewrites:
                toks = ["0" * rnd.randint(0, 3) + t for t in toks]
            if "whitespace" in rewrites:
                gaps = [rnd.choice(["", " ", "\t", "  \t "])] + [
                    rnd.choice([" ", "   ", "\t", " \t"]) for _ in toks
                ]
                out.append("".join(g + t for g, t in zip(gaps, toks + [""])))
            else:
                out.append(" ".join(toks))
    if "comments" in rewrites:
        noted = []
        for line in out:
            noted.append(line + rnd.choice(["", "  # note", "#"]))
            noted.extend(rnd.choice([[], [""], ["# comment"], ["   "]]))
        out = noted
    end = "\r\n" if "crlf" in rewrites else "\n"
    return end.join(out) + end


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4), st.integers(-3, 6), st.integers(0, 10**6),
    st.sets(st.sampled_from(_REWRITES), min_size=1), st.randoms(use_true_random=False),
)
def test_parse_instance_non_canonical_text_gives_same_instance(n, c, seed, rewrites, rnd):
    # any order and whitespace parse to the instance the canonical text gives
    inst = gen_random_hypothesis(n, c, seed)
    for data in (write_instance(inst), _rewrite(inst, rewrites, rnd)):
        parsed = parse_instance(data)
        assert parsed == inst
        assert [p.classes for p in parsed.relations] == [p.classes for p in inst.relations]


def test_canonical_text_is_read_without_canonicalising(monkeypatch):
    # every relation of write_instance's output takes the one-pass path,
    # which builds no Partition through __init__ and fills both caches
    inst = gen_random_hypothesis(6, 20, seed=3)
    data = write_instance(inst)

    def no_init(self, classes):
        raise AssertionError("Partition() called on canonical input")

    monkeypatch.setattr(Partition, "__init__", no_init)
    parsed = parse_instance(data)
    monkeypatch.undo()
    assert parsed == inst
    for p in parsed.relations:
        kern = kernel(p)
        assert p.__dict__["_kernel_cache"] == frozenset(x for cl in p.classes for x in cl)
        assert p.__dict__["_span_cache"] == (min(kern), max(kern))


def test_non_canonical_text_is_read_with_kernel_cached():
    # unsorted classes miss the one-pass path; the line-by-line reader
    # still hands over each relation with its kernel and span cached
    parsed = parse_instance("grinblat 1 2 6\nrel 0 2\n3 1\n0 5\nrel 1 1\n4 2 0\n")
    assert [p.classes for p in parsed.relations] == [((0, 5), (1, 3)), ((0, 2, 4),)]
    for p in parsed.relations:
        kern = p.__dict__["_kernel_cache"]
        assert kern == frozenset(x for cl in p.classes for x in cl)
        assert p.__dict__["_span_cache"] == (min(kern), max(kern))


def test_25_digit_element_names_its_line():
    big = "1" * 25
    with pytest.raises(ParseError) as exc:
        parse_instance(f"grinblat 1 1 4\nrel 0 2\n0 1\n2 {big}\n")
    assert str(exc.value) == f"line 4: element {big} outside ground set of size 4"
    # beyond int64, yet inside a larger ground set
    inst = parse_instance(f"grinblat 1 1 {10**30}\nrel 0 1\n0 {big}\n")
    assert inst.relations[0].classes == ((0, int(big)),)
    # leading zeros make a long token, not a large value
    inst = parse_instance(f"grinblat 1 1 6\nrel 0 1\n{'0' * 24}5 0003\n")
    assert inst.relations[0].classes == ((3, 5),)


def test_no_relations_and_empty_relation():
    empty = Instance(5, [])
    assert parse_instance(write_instance(empty)) == empty
    inst = parse_instance("grinblat 1 2 4\nrel 0 0\nrel 1 1\n0 1\n")
    assert [p.classes for p in inst.relations] == [(), ((0, 1),)]
    inst.validate()
    assert kernel(inst.relations[0]) == frozenset()


class TestMatchingFormat:
    def test_round_trip(self):
        m = Matching([(4, 2), (0, 5)])
        assert parse_matching(write_matching(m)) == m

    def test_duplicate_index(self):
        with pytest.raises(ParseError):
            parse_matching("0 1 2\n0 3 4\n")

    def test_gap_in_indices(self):
        with pytest.raises(ParseError):
            parse_matching("0 1 2\n2 3 4\n")

    def test_empty_matching(self):
        assert write_matching(Matching([])) == b""


class TestCli:
    def _write(self, tmp_path, name, data):
        p = tmp_path / name
        p.write_bytes(data)
        return str(p)

    def test_usage_error_exit_64(self, capsys):
        assert cli.main(["bogus-command"]) == 64
        assert cli.main([]) == 64

    def test_gen_solve_verify_pipeline(self, tmp_path, capsys):
        inst_path = self._write(
            tmp_path, "inst.txt", write_instance(gen_random_hypothesis(30, 100, seed=1))
        )
        assert cli.main(["solve", inst_path, "--c", "100"]) == 0
        matching_text = capsys.readouterr().out
        m_path = self._write(tmp_path, "m.txt", matching_text.encode())
        assert cli.main(["verify", inst_path, m_path]) == 0
        assert "valid" in capsys.readouterr().out

    @pytest.mark.parametrize("inst, c, nmin", [
        (gen_random_hypothesis(30, 100, seed=2), 100, 30),
        # greedy, then extend_matching's exact fallback, then greedy again
        (Instance(10, [
            Partition([(0, 1, 2)]),
            Partition([(0, 1, 2, 3), (8, 9)]),
            Partition([(0, 2), (1, 3)]),
            Partition([(4, 5), (6, 7)]),
        ]), -100, 1),
    ])
    def test_solve_telemetry_is_json_lines(self, tmp_path, capsys, inst, c, nmin):
        path = self._write(tmp_path, "inst.txt", write_instance(inst))
        assert cli.main(["solve", path, "--c", str(c), "--nmin", str(nmin), "--telemetry"]) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        tel = Telemetry()
        solve(inst, c=c, n_min=nmin, telemetry=tel)
        assert [e["phase"] for e in events] == tel.phases()
        assert events == json.loads(json.dumps(tel.events))

    def test_verify_rejects_bad_matching(self, tmp_path, capsys):
        inst = Instance(4, [Partition([(0, 1)])])
        inst_path = self._write(tmp_path, "i.txt", write_instance(inst))
        m_path = self._write(tmp_path, "m.txt", b"0 2 3\n")
        assert cli.main(["verify", inst_path, m_path]) == 2

    def test_verify_names_no_relation_for_a_wrong_pair_count(self, tmp_path, capsys):
        inst = Instance(4, [Partition([(0, 1)])])
        inst_path = self._write(tmp_path, "i.txt", write_instance(inst))
        m_path = self._write(tmp_path, "m.txt", b"0 0 1\n1 2 3\n")
        assert cli.main(["verify", inst_path, m_path]) == 2
        assert capsys.readouterr().err == "invalid: pair count differs from relation count\n"

    def test_exact_proven_none_exit_1(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "lb.txt", write_instance(gen_lower_bound_family(4))
        )
        assert cli.main(["exact", path]) == 1

    def test_gen_planted_writes_sub(self, tmp_path, capsys):
        sub_path = str(tmp_path / "sub.txt")
        assert cli.main(["gen", "planted", "40", "--c", "8", "--sub", sub_path]) == 0
        inst = parse_instance(capsys.readouterr().out)
        lines = open(sub_path, encoding="utf-8").read().splitlines()
        assert len(lines) == 39
        for line in lines:
            i, a, b = (int(x) for x in line.split())
            assert inst.relations[i].equivalent(a, b)

    def test_search_none_found_exit_1(self, capsys):
        assert cli.main(["search", "2", "6", "6", "--budget", "100000"]) == 1

    def test_search_witness_exit_0(self, capsys):
        assert cli.main(["search", "2", "4", "5", "--budget", "100000"]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.n == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.txt", b"not a header\n")
        assert cli.main(["solve", path]) == 2

    def test_unexpected_exception_exit_2(self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "exact", boom)
        assert cli.main(["exact"]) == 2
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_experiment_subcommand(self, tmp_path, capsys):
        cfg = {
            "master_seed": 1,
            "ns": [30],
            "cs": [8],
            "trials": 2,
            "generators": ["planted"],
        }
        path = self._write(tmp_path, "cfg.json", json.dumps(cfg).encode())
        assert cli.main(["experiment", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)
        assert "# cell generator=planted n=30 c=8" in out


class TestExperiment:
    def _cfg(self, **kw):
        base = dict(
            master_seed=99,
            ns=(30,),
            cs=(8,),
            trials=3,
            generators=("planted", "uniform"),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_seed_derivation_spreads(self):
        seeds = {derive_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_report_structure(self):
        out = run_experiment(self._cfg())
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 2 * 3
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 8
            assert fields[4] == "matched"
            assert fields[6] == "0"  # wall_nanos zeroed by default

    def test_byte_identical_reruns(self):
        cfg = self._cfg()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_failed_trials_become_row_outcomes(self):
        # the planted generator needs n >= 10; the sweep records the
        # ValueError per trial instead of aborting
        out = run_experiment(self._cfg(ns=(5,), trials=2, generators=("planted",)))
        lines = out.strip().split("\n")
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert [r[4] for r in rows] == ["invalid-input", "invalid-input"]
        assert [r[5] for r in rows] == ["none", "none"]
        assert lines[-1] == "# cell generator=planted n=5 c=8 success=0/2 phases[none:2]"

    def test_measure_time_populates_wall_nanos(self):
        out = run_experiment(self._cfg(trials=1, generators=("planted",), measure_time=True))
        row = out.strip().split("\n")[1]
        assert int(row.split(",")[6]) > 0

    def test_zero_trials_gives_header_only(self):
        out = run_experiment(self._cfg(trials=0))
        assert out == CSV_HEADER + "\n"

    def test_config_validation(self):
        from grinblat.errors import GrinblatError

        with pytest.raises(GrinblatError):
            ExperimentConfig.from_json("{not json")
        with pytest.raises(GrinblatError):
            ExperimentConfig.from_json(json.dumps({"master_seed": 1}))
        with pytest.raises(GrinblatError):
            ExperimentConfig.from_json(
                json.dumps(
                    {
                        "master_seed": 1,
                        "ns": [30],
                        "cs": [0],
                        "trials": 1,
                        "generators": ["nope"],
                    }
                )
            )

    @pytest.mark.parametrize("field, value, message", [
        ("measure_time", "false", "'measure_time' must be a JSON boolean, got 'false'"),
        ("measure_time", 1, "'measure_time' must be a JSON boolean, got 1"),
        ("generators", "uniform", "'generators' must be a JSON list, got 'uniform'"),
        ("ns", "30", "'ns' must be a JSON list of integers, got '30'"),
        ("cs", "58", "'cs' must be a JSON list of integers, got '58'"),
        ("ns", [30.7], "'ns' must be a JSON list of integers, got [30.7]"),
        ("cs", [8, True], "'cs' must be a JSON list of integers, got [8, True]"),
        ("trials", 1.9, "'trials' must be a JSON integer, got 1.9"),
        ("trials", "1", "'trials' must be a JSON integer, got '1'"),
        ("master_seed", True, "'master_seed' must be a JSON integer, got True"),
        ("n_min", 30.0, "'n_min' must be a JSON integer, got 30.0"),
        ("exact_budget", "10", "'exact_budget' must be a JSON integer, got '10'"),
    ])
    def test_config_rejects_wrong_json_type(self, field, value, message):
        from grinblat.errors import GrinblatError

        raw = {"master_seed": 1, "ns": [30], "cs": [8], "trials": 1, field: value}
        with pytest.raises(GrinblatError) as exc:
            ExperimentConfig.from_json(json.dumps(raw))
        assert str(exc.value) == f"bad experiment config: {message}"

    def test_from_json_round_trip(self):
        cfg = ExperimentConfig.from_json(
            json.dumps(
                {
                    "master_seed": 5,
                    "ns": [30, 40],
                    "cs": [0, 8],
                    "trials": 2,
                    "measure_time": False,
                }
            )
        )
        assert cfg.ns == (30, 40) and cfg.cs == (0, 8)
        assert cfg.generators == ("uniform", "planted")

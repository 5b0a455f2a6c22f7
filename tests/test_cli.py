"""Command-line surface: subcommands, exit codes, and file outputs."""

import dataclasses
import json
import math

import pytest

import pmixed.experiment as experiment
from pmixed import Accountant, EpsMode, ExperimentConfig, PrivacyParams
from pmixed.cli import build_parser, main
from pmixed.experiment import _record_line

CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                   if f.default is not dataclasses.MISSING}


class TestAccount:
    def test_prints_the_reference_record(self, capsys):
        code = main([
            "account", "--eps-g", "8", "--delta", "1e-5", "--queries", "1024",
            "--alpha", "3", "--q", "0.03", "--n-models", "80",
            "--mode", "conservative",
        ])
        assert code == 0
        line = json.loads(capsys.readouterr().out)
        expected = Accountant(
            PrivacyParams(8.0, 1e-5, 1024, 3, 0.03, 80), EpsMode.CONSERVATIVE
        ).record()
        assert line["record"] == "accountant"
        assert line["beta_star"] == pytest.approx(expected["beta_star"], rel=1e-8)
        assert line["composed_eps"] == pytest.approx(8.0, abs=1e-6)
        assert line["dp_eps"] == pytest.approx(expected["dp_eps"], rel=1e-8)

    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "account.jsonl"
        code = main(["account", "--eps-g", "1", "--queries", "16",
                     "--n-models", "4", "--q", "1.0", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["T"] == 16

    def test_invalid_parameters_exit_2(self, capsys):
        code = main(["account", "--eps-g", "-3"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_a_query_count_no_float_holds_exits_2(self, capsys):
        assert main(["account", "--queries", str(10**309)]) == 2
        captured = capsys.readouterr()
        assert "error: T must be a positive integer, got 1000" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["compare"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestFlagTable:
    """Every subcommand's parameter flags come from one table of ExperimentConfig
    fields, with the config's defaults or, under --config, no default."""

    @pytest.mark.parametrize("command", ["train", "predict", "compare", "sweep", "account"])
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: pmixed {command}")
        if command != "train":
            assert "--mode {paper-faithful,conservative}" in out

    @pytest.mark.parametrize("argv, fields", [
        (["train", "--private-corpus", "p", "--public-corpus", "b", "--output", "o"],
         {"vocab_path", "n_models", "order", "smoothing_k", "seed"}),
        (["predict", "--snapshot", "s"], {"eps_g", "delta", "T", "alpha", "q", "mode", "seed"}),
        (["account"], {"eps_g", "delta", "T", "alpha", "q", "n_models", "mode"}),
    ])
    def test_defaults_are_the_config_defaults(self, argv, fields):
        args = vars(build_parser().parse_args(argv))
        assert set(args) & set(CONFIG_DEFAULTS) == fields
        for name in fields:
            assert (args[name], type(args[name])) \
                == (CONFIG_DEFAULTS[name], type(CONFIG_DEFAULTS[name])), name

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_config_overrides_default_to_none(self, command):
        argv = [command, "--config", "c"] + (["--axis", "T", "--values", "1"]
                                            if command == "sweep" else [])
        args = vars(build_parser().parse_args(argv))
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert {name: args[name] for name in fields} == dict.fromkeys(fields)

    def test_account_without_flags_prints_the_default_record(self, capsys):
        assert main(["account"]) == 0
        config = ExperimentConfig("private.txt", "public.txt", "test.txt")
        record = Accountant(config.params(), config.mode).record()
        assert capsys.readouterr().out == _record_line({"record": "accountant", **record})


class TestTrainAndPredict:
    @pytest.fixture
    def snapshot(self, tiny_corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "ensemble.jsonl"
        code = main([
            "train",
            "--private-corpus", str(tiny_corpus["root"] / "private.txt"),
            "--public-corpus", str(tiny_corpus["root"] / "public.txt"),
            "--vocab", str(tiny_corpus["root"] / "vocab.txt"),
            "--n-models", "4", "--order", "2", "--smoothing-k", "0.1",
            "--seed", "7", "--output", str(path),
        ])
        assert code == 0
        return path

    def test_snapshot_written(self, snapshot):
        records = [json.loads(line) for line in snapshot.read_text().splitlines()]
        assert records[0]["kind"] == "vocab"
        roles = [r["role"] for r in records[1:]]
        assert roles == ["public"] + ["member"] * 4

    def test_predict_batch(self, snapshot, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "predict", "--snapshot", str(snapshot),
            "--context", "v1 v2", "--context", "v5",
            "--steps", "2", "--eps-g", "2", "--queries", "16",
            "--q", "0.5", "--seed", "11", "--trace", str(trace),
        ])
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [line["context"] for line in lines] == [["v1", "v2"], ["v5"]]
        assert all(len(line["generated"]) == 2 for line in lines)
        trace_lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(trace_lines) == 5
        assert trace_lines[0]["record"] == "accountant"
        assert trace_lines[0]["queries_answered"] == 4

    def test_predict_is_deterministic(self, snapshot, capsys):
        argv = ["predict", "--snapshot", str(snapshot), "--context", "v1 v2",
                "--steps", "3", "--eps-g", "2", "--queries", "16",
                "--q", "0.5", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_predict_refuses_after_budget(self, snapshot, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "predict", "--snapshot", str(snapshot),
            "--context", "v1", "--steps", "3",
            "--eps-g", "2", "--queries", "2", "--q", "0.5", "--trace", str(trace),
        ])
        assert code == 1
        assert capsys.readouterr().err.count("refused: query budget exhausted") == 1
        # the trace is still written, and holds the two answers given before the refusal
        header, *answers = [json.loads(text) for text in trace.read_text().splitlines()]
        assert (header["queries_answered"], len(answers)) == (2, 2)

    def test_predict_steps_below_one_is_a_usage_error(self, snapshot, capsys):
        for steps in ("0", "-2"):
            code = main(["predict", "--snapshot", str(snapshot), "--context", "v1",
                         "--steps", steps, "--queries", "4", "--q", "0.5"])
            assert code == 2
            captured = capsys.readouterr()
            assert "usage" in captured.err and "--steps" in captured.err
            assert captured.out == ""

    def test_predict_negative_seed_is_a_usage_error(self, snapshot, capsys):
        code = main(["predict", "--snapshot", str(snapshot), "--context", "v1",
                     "--queries", "4", "--q", "0.5", "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err
        assert "seed must be a nonnegative integer, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field, value, problem", [
        ("index", None, "snapshot line 4: member record misses index"),
        ("index", 0, "snapshot line 4: member index 0 repeats line 3"),
        ("counts", [[[2], [[3, 1.5]]]],
         "snapshot line 4: 'float' object cannot be interpreted as an integer"),
        ("counts", [[[2], [[3, -0.5]]]],
         "snapshot line 4: 'float' object cannot be interpreted as an integer"),
        ("counts", [[[2, 3], [[3, 1]]]],
         "snapshot line 4: window [2, 3] holds 2 token ids, not order - 1 = 1"),
        ("counts", [[[2], [[3, True]]]],
         "snapshot line 4: a model record holds no booleans"),
        ("counts", [[[False], [[3, 1]]]],
         "snapshot line 4: a model record holds no booleans"),
    ])
    def test_predict_malformed_snapshot_is_a_usage_error(self, snapshot, capsys, tmp_path,
                                                         field, value, problem):
        records = [json.loads(line) for line in snapshot.read_text().splitlines()]
        if value is None:
            del records[3][field]
        else:
            records[3][field] = value
        broken = tmp_path / "broken.jsonl"
        broken.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = main(["predict", "--snapshot", str(broken), "--context", "v1",
                     "--queries", "4", "--q", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {problem}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_train_refuses_an_infinite_smoothing_k(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "ensemble.jsonl"
        code = main(["train", "--private-corpus", str(tiny_corpus["root"] / "private.txt"),
                     "--public-corpus", str(tiny_corpus["root"] / "public.txt"),
                     "--n-models", "4", "--smoothing-k", "inf", "--output", str(out)])
        assert code == 2
        assert "error: smoothing_k must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("line, field, value, problem", [
        (2, "smoothing_k", math.inf, "snapshot line 2: smoothing_k must be finite, got inf"),
        (2, "counts", [[[2], [[3, 10**308], [4, 10**308]]]],
         "counts after (2,) total inf, which is not finite"),
        (3, "counts", [[[2], [[3, math.inf]]]],
         "snapshot line 3: 'float' object cannot be interpreted as an integer"),
        (2, "counts", [[[2], [[3, 10**309]]]], "counts must be a nonnegative integer, got 1000"),
        (2, "counts", [[[2], [[3, -4]]]],
         "counts must be a nonnegative integer, got -4 in the row after (2,)"),
    ])
    def test_predict_refuses_non_finite_model_values(self, snapshot, capsys, tmp_path,
                                                     line, field, value, problem):
        records = [json.loads(text) for text in snapshot.read_text().splitlines()]
        records[line - 1][field] = value
        broken, trace = tmp_path / "broken.jsonl", tmp_path / "trace.jsonl"
        broken.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        code = main(["predict", "--snapshot", str(broken), "--context", "v1",
                     "--queries", "4", "--q", "0.5", "--trace", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {problem}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        if problem.startswith("snapshot line"):  # refused by the loader: no session
            assert not trace.exists()
        else:  # refused on the row's first use: nothing was released or charged
            header, *answers = [json.loads(text) for text in trace.read_text().splitlines()]
            assert (header["queries_answered"], answers) == (0, [])

    def test_predict_refuses_a_trace_path_it_cannot_write_before_answering(self, snapshot,
                                                                           capsys, tmp_path):
        for trace, problem in ((tmp_path / "missing" / "t.jsonl", "trace directory not found"),
                               (tmp_path, "trace path is a directory")):
            code = main(["predict", "--snapshot", str(snapshot), "--context", "v1",
                         "--queries", "4", "--q", "0.5", "--trace", str(trace)])
            assert code == 2
            captured = capsys.readouterr()
            assert f"error: {problem}" in captured.err
            assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "missing").exists()

    def test_predict_reads_input_file(self, snapshot, capsys, tmp_path):
        contexts = tmp_path / "contexts.txt"
        contexts.write_text("v1 v2\nv3\n", encoding="utf-8")
        code = main(["predict", "--snapshot", str(snapshot),
                     "--input", str(contexts), "--eps-g", "2",
                     "--queries", "8", "--q", "0.5"])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestCompareAndSweep:
    def test_compare_writes_report(self, tiny_corpus, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["compare", "--config", str(tiny_corpus["config_path"]),
                     "--output", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        arms = {r["arm"] for r in records if r["record"] == "arm_summary"}
        assert arms == {"public", "ensemble", "pmixed"}

    def test_compare_missing_corpus_exits_2(self, tiny_corpus, capsys):
        code = main(["compare", "--config", str(tiny_corpus["config_path"]),
                     "--test-corpus", "/nonexistent/test.txt"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage" in err and "not found" in err

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_output_into_a_missing_directory_exits_2_before_training(self, tiny_corpus,
                                                                    tmp_path, capsys,
                                                                    command, monkeypatch):
        def no_training(*args):
            raise AssertionError("trained before the output path was checked")

        monkeypatch.setattr(experiment, "_train_arms", no_training)
        out = tmp_path / "missing" / "report.jsonl"
        axis = ["--axis", "eps_G", "--values", "0.5"] if command == "sweep" else []
        code = main([command, "--config", str(tiny_corpus["config_path"]), *axis,
                     "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: output directory not found" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("text, problem", [
        ("[1, 2]", "config must be a JSON object, got list"),
        ('"abc"', "config must be a JSON object, got str"),
        ("{}", "config misses private_corpus_path, public_corpus_path, test_corpus_path"),
        ('{"private_corpus_path": "p.txt"}',
         "config misses public_corpus_path, test_corpus_path"),
    ])
    def test_compare_config_that_is_not_a_config_object_exits_2(self, tmp_path, capsys,
                                                                text, problem):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert main(["compare", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert f"error: {problem}\n" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("bad", [{"T": float("inf")}, {"runs": 1.5},
                                     {"max_seq_len": -3}])
    def test_compare_bad_count_in_config_exits_2(self, tiny_corpus, tmp_path, capsys, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**tiny_corpus["config"], **bad}), encoding="utf-8")
        assert main(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "must be a positive integer" in err

    @pytest.mark.parametrize("field", ["runs", "n_models", "max_seq_len", "seed", "T",
                                       "alpha", "order"])
    def test_compare_integral_float_writes_the_report_of_the_int(self, tiny_corpus,
                                                                 tmp_path, field):
        value = {"max_seq_len": 4, "seed": 3}.get(field, tiny_corpus["config"].get(field))
        reports = []
        for given in (value, float(value)):
            config, out = tmp_path / "config.json", tmp_path / "report.jsonl"
            config.write_text(json.dumps({**tiny_corpus["config"], field: given}),
                              encoding="utf-8")
            assert main(["compare", "--config", str(config), "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("seed", [3.5, -1])
    def test_compare_bad_seed_in_config_exits_2(self, tiny_corpus, tmp_path, capsys, seed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**tiny_corpus["config"], "seed": seed}),
                          encoding="utf-8")
        assert main(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "usage" in err and "seed must be a nonnegative integer" in err

    def test_compare_override_changes_the_config_record(self, tiny_corpus, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["compare", "--config", str(tiny_corpus["config_path"]),
                     "--runs", "1", "--mode", "paper-faithful",
                     "--output", str(out)])
        assert code == 0
        config_record = json.loads(out.read_text().splitlines()[0])
        assert config_record["runs"] == 1
        assert config_record["mode"] == "paper-faithful"

    def test_sweep_writes_table(self, tiny_corpus, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--config", str(tiny_corpus["config_path"]),
                     "--runs", "1", "--axis", "eps_G", "--values", "0.5,2",
                     "--output", str(out)])
        assert code == 0
        table = (tmp_path / "sweep.jsonl.tsv").read_text().splitlines()
        assert table[0].startswith("axis\tvalue\tarm")
        assert len(table) == 7  # header + 2 values x 3 arms

    def test_sweep_rejects_fractional_value_on_integer_axis(self, tiny_corpus, tmp_path,
                                                            capsys):
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--config", str(tiny_corpus["config_path"]),
                     "--runs", "1", "--axis", "T", "--values", "16,2.5",
                     "--output", str(out)])
        assert code == 2
        assert "integer" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_fractional_runs_in_config_exits_2(self, tiny_corpus, tmp_path, capsys):
        config, out = tmp_path / "config.json", tmp_path / "sweep.jsonl"
        config.write_text(json.dumps({**tiny_corpus["config"], "runs": 1.5}),
                          encoding="utf-8")
        code = main(["sweep", "--config", str(config), "--axis", "eps_G",
                     "--values", "0.5,2", "--output", str(out)])
        assert code == 2
        assert "runs must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_bad_axis(self, tiny_corpus):
        assert main(["sweep", "--config", str(tiny_corpus["config_path"]),
                     "--axis", "zeta", "--values", "1"]) == 2

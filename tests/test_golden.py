"""Every CLI output of a fixed command set is byte-identical to the digests
that tests/record_golden.py recorded (reports less their `created_at`)."""
import json

from record_golden import (GOLDEN, is_report, mismatches, record,
                           report_fields, run_commands)


def test_cli_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems = mismatches(run_commands(tmp_path), golden)
    assert not problems, "\n".join(problems)


def test_a_changed_report_names_its_first_differing_field():
    report = {"class_names": ["a", "b"], "config": {"tau": 0.01},
              "created_at": "2000-01-01T00:00:00+00:00", "history": [[0, 1,
              0.5]], "metrics": {"bag_accuracy": 0.5, "num_bags": 4}}
    name = "train-x.json"
    assert is_report(name)
    before = {name: json.dumps(report, sort_keys=True).encode()}
    golden = record(before)
    assert "created_at" not in report_fields(before[name])
    report.update(created_at="2001-01-01T00:00:00+00:00")
    assert mismatches({name: json.dumps(report, sort_keys=True).encode()},
                      golden) == []
    report["metrics"].update(bag_accuracy=0.75, num_bags=5)
    assert mismatches({name: json.dumps(report, sort_keys=True).encode()},
                      golden) == [
        f"{name}: digest differs; first differing key path "
        "'metrics.bag_accuracy' (2 differ); largest difference 1"]
    assert mismatches({}, golden) == [f"{name}: not written"]

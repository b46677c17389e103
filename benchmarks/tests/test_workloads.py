import pytest

import workloads
from novlab.experiments import StudyReport, write_report_csv


def _report():
    report = StudyReport(
        study_name="shorttime",
        params={"s": 3.0},
        tolerances={"first_order_slope": 0.1, "second_order_slope": 0.2},
        columns=["t", "dist"],
        rows=[(1e-3, 0.5), (2e-3, 1.0)],
    )
    report.add_verdict("first_order_rho", True, 1.0000004,
                       "slope within 1 +- tol_first_order_slope")
    report.add_verdict("first_order_u", True, float("inf"), "no tolerance named")
    report.add_verdict("second_order_rho", True, 2.0, "slope within 2 +- tol_second_order_slope")
    report.add_verdict("second_order_u", False, 2.5, "slope within 2 +- tol_second_order_slope")
    return report


def test_parse_study_csv_reads_tolerances_and_verdicts(tmp_path):
    path = tmp_path / "run_shorttime.csv"
    write_report_csv(_report(), path)
    tolerances, verdicts = workloads.parse_study_csv(path)
    assert tolerances == {"first_order_slope": 0.1, "second_order_slope": 0.2}
    assert [(v[0], v[1]) for v in verdicts] == [
        ("first_order_rho", True), ("first_order_u", True),
        ("second_order_rho", True), ("second_order_u", False)]
    assert verdicts[0][2] == pytest.approx(1.0, abs=1e-6)
    assert verdicts[1][2] == float("inf")
    assert verdicts[3][3] == "slope within 2 +- tol_second_order_slope"


def test_reference_bound_never_looser_than_declared_tolerance():
    tol = {"slope": 0.1, "stability_factor": 2.0}
    assert workloads.reference_bound(2.0, "within tol_slope", tol) == pytest.approx(2e-3)
    assert workloads.reference_bound(500.0, "within tol_slope", tol) == 0.1
    assert workloads.reference_bound(0.01, "finite and positive", tol) == 1e-3


def test_check_study_fails_on_fail_verdict_and_off_reference(tmp_path):
    report = _report()
    inv = workloads.Invocation(("study", "shorttime"), "study", str(tmp_path / "run"))
    write_report_csv(report, inv.outputs()[0])
    result, log = workloads.CheckResult(), []
    workloads.check_study(inv, None, result, log, {})
    assert (result.attempted, result.failed) == (4, 1)
    ref = {"first_order_rho": 1.01, "first_order_u": float("inf"), "second_order_rho": 2.0}
    result, log = workloads.CheckResult(), []
    workloads.check_study(inv, ref, result, log, {})
    assert (result.attempted, result.failed) == (4, 2)
    assert "off its reference" in log[0]


def test_check_study_charges_every_verdict_when_the_set_changes(tmp_path):
    report = _report()
    report.verdicts.pop()
    inv = workloads.Invocation(("study", "shorttime"), "study", str(tmp_path / "run"))
    write_report_csv(report, inv.outputs()[0])
    result, log = workloads.CheckResult(), []
    workloads.check_study(inv, None, result, log, {})
    assert (result.attempted, result.failed) == (4, 4)


def test_seed_maps_to_lambda_and_corpus_seed(tmp_path):
    lo, hi = workloads.LAMBDA_WINDOW
    lams = {workloads.seed_lambda(s) for s in range(50)}
    assert all(lo <= lam <= hi for lam in lams) and len(lams) == 50
    assert workloads.seed_lambda(7) == workloads.seed_lambda(7)
    (inv,) = workloads.invocations("shorttime-desk", 7, tmp_path)
    assert inv.argv[inv.argv.index("--lambda") + 1] == repr(workloads.seed_lambda(7))
    (inv,) = workloads.invocations("inequalities-corpus", 7, tmp_path)
    assert inv.argv[inv.argv.index("--seed") + 1] == "7"
    assert [i.kind for i in workloads.invocations("fields-desk", 7, tmp_path)] == [
        "generate-data", "decompose", "study"]


def test_run_refuses_a_directory_without_novlab_sources(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fields-desk", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no novlab sources" in captured.err
    assert not (tmp_path / ".bench_out").exists()

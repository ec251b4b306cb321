import xml.etree.ElementTree as ET

import pytest

from eegspeech import plotting


def test_task_metrics_domains():
    plotting.TaskMetrics(task="uw", accuracy=1.0, kappa=-1.0)
    with pytest.raises(ValueError):
        plotting.TaskMetrics(task="uw", accuracy=1.2, kappa=0.0)
    with pytest.raises(ValueError):
        plotting.TaskMetrics(task="uw", accuracy=0.5, kappa=1.5)


def test_render_rejects_empty():
    with pytest.raises(ValueError):
        plotting.render_task_bars([])


def test_render_is_deterministic():
    entries = [plotting.TaskMetrics(task="uw", accuracy=0.75, kappa=0.5),
               plotting.TaskMetrics(task="iy", accuracy=0.6, kappa=0.2)]
    assert plotting.render_task_bars(entries) == plotting.render_task_bars(entries)


def test_render_parses_and_prints_two_decimals():
    entries = [plotting.TaskMetrics(task="uw", accuracy=0.756, kappa=0.512),
               plotting.TaskMetrics(task="iy", accuracy=1.0, kappa=-0.25)]
    root = ET.fromstring(plotting.render_task_bars(entries))
    texts = root.findall(".//{*}text")
    assert [t.text for t in texts if t.get("class") == "value-acc"] == ["0.76", "1.00"]
    assert [t.text for t in texts if t.get("class") == "value-kappa"] == ["0.51", "-0.25"]
    assert [t.text for t in texts if t.get("class") == "task"] == ["uw", "iy"]


def test_render_escapes_markup_in_task_names():
    entries = [plotting.TaskMetrics(task="a<b&c>d", accuracy=0.5, kappa=0.0)]
    root = ET.fromstring(plotting.render_task_bars(entries))
    assert [t.text for t in root.findall(".//{*}text") if t.get("class") == "task"] == \
        ["a<b&c>d"]


def test_negative_kappa_bar_is_clipped_to_zero():
    entries = [plotting.TaskMetrics(task="uw", accuracy=0.5, kappa=-0.4)]
    root = ET.fromstring(plotting.render_task_bars(entries))
    heights = [int(r.get("height")) for r in root.findall(".//{*}rect")]
    # background, accuracy bar, then the clipped kappa bar
    assert heights[-1] == 0
    assert all(h >= 0 for h in heights)


def test_full_score_bar_spans_plot_height():
    entries = [plotting.TaskMetrics(task="uw", accuracy=1.0, kappa=0.0)]
    root = ET.fromstring(plotting.render_task_bars(entries))
    rects = root.findall(".//{*}rect")
    assert int(rects[1].get("height")) == 220


def test_axis_ticks_labelled():
    entries = [plotting.TaskMetrics(task="uw", accuracy=0.5, kappa=0.5)]
    root = ET.fromstring(plotting.render_task_bars(entries))
    labels = {t.text for t in root.findall(".//{*}text") if t.get("class") is None}
    assert {"0.00", "0.25", "0.50", "0.75", "1.00"} <= labels


def test_csv_table_layout(tmp_path):
    entries = [plotting.TaskMetrics(task="uw", accuracy=0.756, kappa=0.512),
               plotting.TaskMetrics(task="iy", accuracy=0.6, kappa=0.2)]
    path = tmp_path / "metrics.csv"
    plotting.write_metric_table_csv(entries, path)
    lines = path.read_text().splitlines()
    assert lines == ["metric,uw,iy", "accuracy_pct,75.60,60.00", "kappa,0.51,0.20"]


def test_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        plotting.write_metric_table_csv([], tmp_path / "metrics.csv")

"""The command-line reports: demo, power and the datapath tables."""

import json
import re

from repro.exp.targets import CORUN_PLACEMENTS, CROSSOVER_PLACEMENTS


def test_cli_demo_runs():
    from repro.__main__ import main

    assert main(["demo"]) == 0


def test_cli_matrix_renders_the_datapath_tables(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "matrix.json"
    assert main(["matrix", "--only", "datapath", "--no-cache",
                 "--json-out", str(path)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(path.read_text())["targets"]["datapath"]

    crossover, corun, heading = {}, {}, None
    for line in out.splitlines():
        match = re.fullmatch(r"  (TLS|DEFLATE) (\d+)B \(cpu: [\d,]+ req/s\)",
                             line)
        if match:
            heading = (match.group(1).lower(), match.group(2))
        match = re.fullmatch(
            r"    (\w+) +rps= *([\d.]+)x cpu= *([\d.]+)x bw= *([\d.]+)x", line)
        if match:
            crossover[heading + (match.group(1),)] = tuple(
                float(value) for value in match.groups()[1:])
        match = re.fullmatch(r"    (\w+) +nginx= *([\d.]+)% mcf= *([\d.]+)% "
                             r"corun=([\d,]+) req/s", line)
        if match:
            corun[match.group(1)] = (float(match.group(2)),
                                     float(match.group(3)),
                                     int(match.group(4).replace(",", "")))

    expected = {}
    for ulp, placements in CROSSOVER_PLACEMENTS.items():
        for size in ("4096", "16384", "65536"):
            row = payload["crossover"][ulp][size]
            for placement in placements:
                expected[(ulp, size, placement)] = tuple(
                    round(row[placement][key] / row["cpu"][key], 2)
                    for key in ("rps", "cycles_per_request",
                                "membw_bytes_per_request"))
    assert crossover == expected
    expected = {}
    for placement in CORUN_PLACEMENTS:
        point = payload["corun"][placement]
        expected[placement] = (round(100 * point["nginx_slowdown"], 1),
                               round(100 * point["corunner_slowdown"], 1),
                               round(point["nginx_corun_rps"]))
    assert corun == expected


def test_cli_power_runs(capsys):
    from repro.__main__ import main

    assert main(["power", "0.5"]) == 0
    assert "dynamic power" in capsys.readouterr().out

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgtd.cli import main
from dgtd.config import parse_config, parse_table_spec
from dgtd.errors import ConfigError
from dgtd.experiments import SweepSpec, table_filename

PEC_CONFIG = """\
[mesh]
kind = structured
cells = 5

[material]
eps_xx = 5.0
eps_xy = 1.0
eps_yx = 1.0
eps_yy = 3.0
mu = 1.0

[discretization]
order = 1
alpha = 0.0
bc = PEC

[time]
dt = auto
safety = 0.5
final_time = 1.0

[initial]
name = pec_cosine
"""


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = REPO / "demos" / "configs"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_auto_dt_completes(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0] == "step,time,energy"
    assert len(energy) > 2
    assert (out / "effective.cfg").exists()


def test_simulate_blowup_exit_code(tmp_path):
    text = (PEC_CONFIG.replace("dt = auto", "dt = 0.1")
                      .replace("cells = 5", "cells = 10")
                      .replace("order = 1", "order = 2")
                      .replace("final_time = 1.0", "final_time = 5.0"))
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3


def test_simulate_missing_mesh_file(tmp_path):
    text = PEC_CONFIG.replace(
        "kind = structured\ncells = 5",
        "kind = file\npath = nowhere.txt")
    cfg = write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_simulate_bad_config_value(tmp_path):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG.replace("bc = PEC", "bc = open"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_config_round_trip_byte_identical(tmp_path):
    cfg_path = write(tmp_path, "run.cfg",
                     PEC_CONFIG.replace("final_time = 1.0", "final_time = 0.25"))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    effective = out1 / "effective.cfg"
    assert main(["simulate", "--config", str(effective), "--out", str(out2)]) == 0
    assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
    assert (out1 / "effective.cfg").read_bytes() == (out2 / "effective.cfg").read_bytes()


SQUARE_MESH = """\
dgtd-mesh v1
V 4
0 0
1 0
1 1
0 1
T 2
0 1 2
0 3 2
"""

# non-canonical spellings of a file mesh with reorient, a material table
# and a custom initial condition
FILE_MESH_CONFIG = """\
[mesh]
kind = file
path = {mesh}
reorient = yes

[material]
table = {table}

[discretization]
order = 01
alpha = 1
bc = pec

[time]
dt = .05
final_time = 1e-1

[initial]
name = custom
hz = sin(pi * x) * y

[output]
fields = yes
energy_every = 02
"""

FILE_MESH_EFFECTIVE = """\
[mesh]
kind = file
path = {mesh}
reorient = true

[material]
table = {table}

[discretization]
order = 1
alpha = 1.0
bc = PEC

[time]
dt = 0.05
safety = 0.5
final_time = 0.1

[initial]
name = custom
hz = sin(pi * x) * y

[output]
energy_every = 2
fields = true
blowup_factor = 1000000.0
"""

# defaults for every section the file leaves out
SPARSE_CONFIG = """\
[mesh]
cells = 02
xmin = -1
diagonal = backslash
[discretization]
bc = Silver-Muller
[time]
final_time = .25
safety = 5e-1
[output]
fields = off
blowup_factor = 1e3
"""

SPARSE_EFFECTIVE = """\
[mesh]
kind = structured
cells = 2
xmin = -1.0
xmax = 1.0
ymin = -1.0
ymax = 1.0
diagonal = backslash

[material]
eps_xx = 5.0
eps_xy = 1.0
eps_yx = 1.0
eps_yy = 3.0
mu = 1.0

[discretization]
order = 1
alpha = 0.0
bc = SM

[time]
dt = auto
safety = 0.5
final_time = 0.25

[initial]
name = sm_sine

[output]
energy_every = 1
fields = false
blowup_factor = 1000.0
"""


@pytest.mark.parametrize("text, expected", [
    (FILE_MESH_CONFIG, FILE_MESH_EFFECTIVE),
    (SPARSE_CONFIG, SPARSE_EFFECTIVE),
], ids=["file-mesh-table-custom", "structured-defaults"])
def test_effective_cfg_text(tmp_path, text, expected):
    paths = {"mesh": write(tmp_path, "mesh.txt", SQUARE_MESH),
             "table": write(tmp_path, "mats.txt",
                            "0 5 1 1 3 1\n1 4 0 0 4 2\n")}
    cfg = write(tmp_path, "run.cfg", text.format(**paths))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    effective = out1 / "effective.cfg"
    assert effective.read_text() == expected.format(**paths)
    # the written file reads back to the same run and the same text
    assert main(["simulate", "--config", str(effective), "--out", str(out2)]) == 0
    assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
    assert (out2 / "effective.cfg").read_bytes() == effective.read_bytes()


def test_simulate_fields_output(tmp_path):
    text = PEC_CONFIG + "\n[output]\nfields = true\n"
    text = text.replace("final_time = 1.0", "final_time = 0.05")
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "fields.csv").read_text().splitlines()
    assert lines[0] == "element,node,x,y,Ex,Ey,Hz"
    assert len(lines) == 1 + 50 * 3  # K * Np for N=1 on a 5x5 grid


def test_bound_command(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG)
    out = tmp_path / "out"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "dt_bound" in captured
    rows = (out / "bound.csv").read_text().splitlines()
    assert rows[0].startswith("dim,c_inv,c_tau")
    assert rows[1].startswith("2,")


def test_bound_on_empty_mesh_file_is_a_config_error(tmp_path, capsys):
    mesh = write(tmp_path, "empty.txt",
                 "dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 0\n")
    text = PEC_CONFIG.replace("kind = structured\ncells = 5",
                              f"kind = file\npath = {mesh}")
    cfg = write(tmp_path, "run.cfg", text)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "mesh has no triangles" in err


def test_bound_on_mesh_file_with_huge_index_is_a_config_error(tmp_path, capsys):
    mesh = write(tmp_path, "huge.txt",
                 "dgtd-mesh v1\nV 3\n0 0\n1 0\n0 1\nT 1\n0 1 99999999999999999999\n")
    text = PEC_CONFIG.replace("kind = structured\ncells = 5",
                              f"kind = file\npath = {mesh}")
    cfg = write(tmp_path, "run.cfg", text)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "triangle 0: bad vertex index" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "dgtd", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "dtmax-sweep" in proc.stdout


def test_bound_three_d(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG)
    out = tmp_path / "out"
    assert main(["bound", "--config", cfg, "--out", str(out),
                 "--three-d", "--h-min-3d", "0.25"]) == 0
    captured = capsys.readouterr().out
    assert "3D bound" in captured
    rows = (out / "bound.csv").read_text().splitlines()
    assert rows[2].startswith("3,")


def test_dtmax_sweep_command(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG)
    assert main(["dtmax-sweep", "--config", cfg, "--tol", "0.05"]) == 0
    captured = capsys.readouterr().out
    assert "dt_max" in captured and "theory bound" in captured
    assert "spectral dt" in captured


@pytest.mark.parametrize("argv", [
    ["simulate", "--threads", "2"],
    ["bound", "--tol", "0.1"],
    ["bound", "--threads", "2"],
    ["dtmax-sweep", "--threads", "2"],
    ["table", "--threads", "2"],
])
def test_unused_flags_are_refused(tmp_path, capsys, argv):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_table_command(tmp_path, capsys):
    spec = write(tmp_path, "table.cfg", """\
[sweep]
cells = 5
orders = 1
flux = upwind
bc = PEC
tol = 0.05
""")
    out = tmp_path / "out"
    assert main(["table", "--config", spec, "--out", str(out)]) == 0
    path = out / "table_pec_upwind.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "h_min,N,dt_max,C,theory_bound"
    h, n, dtmax, c, bound = lines[1].split(",")
    assert float(h) == pytest.approx(0.56569, abs=1e-5)
    assert float(dtmax) >= float(bound)


def test_parse_config_defaults_and_errors(tmp_path):
    cfg = parse_config(write(tmp_path, "ok.cfg", PEC_CONFIG))
    assert cfg.order == 1 and cfg.dt is None
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "bad1.cfg",
                           PEC_CONFIG.replace("dt = auto", "dt = nonsense")))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "bad2.cfg",
                           PEC_CONFIG.replace("dt = auto", "dt = -0.5")))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("extra, match", [
    ("[output]\nbounded_factor = 1.01\n", r"unknown or unused \[output\] keys: bounded_factor"),
    ("[output]\nfrobnicate = 3\n", r"unknown or unused \[output\] keys: frobnicate"),
    ("[solver]\ncfl = 0.5\n", r"unknown section \[solver\]"),
])
def test_parse_config_rejects_unknown_keys(tmp_path, capsys, extra, match):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG + extra)
    with pytest.raises(ConfigError, match=match):
        parse_config(cfg)
    assert main(["dtmax-sweep", "--config", cfg]) == 2


def test_parse_config_rejects_unused_keys(tmp_path):
    # hz is read only for a custom initial condition
    text = PEC_CONFIG.replace("name = pec_cosine", "name = pec_cosine\nhz = sin(x)")
    with pytest.raises(ConfigError, match=r"unknown or unused \[initial\] keys: hz"):
        parse_config(write(tmp_path, "unused.cfg", text))


# (bc, alpha) of each shipped table config; each runs its table's whole grid
SHIPPED_TABLES = {
    "table_pec_central.cfg": ("PEC", 0.0),
    "table_pec_upwind.cfg": ("PEC", 1.0),
    "table_sm_central.cfg": ("SM", 0.0),
    "table_sm_upwind.cfg": ("SM", 1.0),
}


@pytest.mark.parametrize("name", sorted(p.name for p in SHIPPED_CONFIGS.glob("*.cfg")))
def test_shipped_configs_parse(name):
    if name not in SHIPPED_TABLES:
        parse_config(str(SHIPPED_CONFIGS / name))
        return
    spec = parse_table_spec(str(SHIPPED_CONFIGS / name))
    assert [f.name for f in dataclasses.fields(spec)] == [
        "cells", "orders", "alpha", "bc", "tol"]
    bc, alpha = SHIPPED_TABLES[name]
    assert spec == SweepSpec(cells=[5, 10, 20, 40, 80, 160], orders=[1, 2, 3, 4, 5],
                             alpha=alpha, bc=bc, tol=0.01)
    assert table_filename(spec.bc, spec.alpha) == name.replace(".cfg", ".csv")


def test_parse_config_custom_initial(tmp_path):
    text = PEC_CONFIG.replace("name = pec_cosine",
                              "name = custom\nhz = sin(pi * x) * cos(pi * y)")
    cfg = parse_config(write(tmp_path, "c.cfg", text))
    fn = cfg.initial_condition()
    x = np.array([0.5])
    y = np.array([0.0])
    assert fn(x, y, 0.1)[0] == pytest.approx(1.0)


def test_parse_table_spec_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_table_spec(write(tmp_path, "t1.cfg", "[sweep]\norders = 1\nbc = PEC\n"))
    with pytest.raises(ConfigError):
        parse_table_spec(write(tmp_path, "t2.cfg",
                               "[sweep]\ncells = 5\norders = 1\nbc = PEC\nflux = fancy\n"))
    with pytest.raises(ConfigError, match="blowup_factor"):
        parse_table_spec(write(tmp_path, "t4.cfg",
                               "[sweep]\ncells = 5\norders = 1\nbc = PEC\nblowup_factor = 1e6\n"))
    for section, key in (("time", "dt = 0.1"), ("material", "mu = 1.0")):
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            parse_table_spec(write(tmp_path, "t6.cfg", "[sweep]\ncells = 5\norders = 1\n"
                                   f"bc = PEC\n[{section}]\n{key}\n"))
    with pytest.raises(ConfigError, match="not both"):
        parse_table_spec(write(tmp_path, "t5.cfg",
                               "[sweep]\ncells = 5\norders = 1\nbc = PEC\nflux = upwind\nalpha = 0.5\n"))
    for key in ("diagonal = backslash", "initial = zero", "final_time = 1.0",
                "bounded_factor = 5.0"):
        with pytest.raises(ConfigError, match=r"unknown or unused \[sweep\] keys: "
                                              + key.split()[0]):
            parse_table_spec(write(tmp_path, "t7.cfg",
                                   f"[sweep]\ncells = 5\norders = 1\nbc = PEC\n{key}\n"))
    spec = parse_table_spec(write(tmp_path, "t3.cfg", """\
[sweep]
cells = 5, 10
orders = 1 2 3
flux = central
bc = SM
"""))
    assert spec.cells == [5, 10]
    assert spec.orders == [1, 2, 3]
    assert spec.alpha == 0.0
    assert spec.bc == "SM"
    # keys the file leaves out take SweepSpec's defaults
    assert spec == SweepSpec(cells=[5, 10], orders=[1, 2, 3], alpha=0.0, bc="SM")


def test_material_table_config(tmp_path):
    table = tmp_path / "mats.txt"
    table.write_text("0 1 0 0 1 1\n1 4 0 0 4 1\n")
    text = PEC_CONFIG.replace("cells = 5", "cells = 1").replace(
        "eps_xx = 5.0\neps_xy = 1.0\neps_yx = 1.0\neps_yy = 3.0\nmu = 1.0",
        f"table = {table}")
    cfg = parse_config(write(tmp_path, "run.cfg", text))
    mesh = cfg.build_mesh()
    mats = cfg.build_materials(mesh)
    assert mats.eps[1, 0, 0] == 4.0
    assert "\nmu = " not in cfg.effective_text
    # the table's last column is mu: a [material] mu beside it would be ignored
    with pytest.raises(ConfigError, match=r"unknown or unused \[material\] keys: mu"):
        parse_config(write(tmp_path, "mu.cfg",
                           text.replace(f"table = {table}", f"table = {table}\nmu = 7.0")))


TABLE_SPEC = "[sweep]\ncells = 5\norders = 1\nflux = upwind\nbc = PEC\ntol = 0.05\n"
BAD_SIMULATION_VALUES = {
    "order0": ("order = 1", "order = 0"),
    "cells0": ("cells = 5", "cells = 0"),
    "diagonal": ("cells = 5", "cells = 5\ndiagonal = diag"),
    "dt-nan": ("dt = auto", "dt = nan"),
    "dt-inf": ("dt = auto", "dt = inf"),
    "final_time-nan": ("final_time = 1.0", "final_time = nan"),
    "eps_xx-nan": ("eps_xx = 5.0", "eps_xx = nan"),
    "mu-nan": ("mu = 1.0", "mu = nan"),
    "mu-inf": ("mu = 1.0", "mu = inf"),
    "energy_every0": ("name = pec_cosine", "name = pec_cosine\n[output]\nenergy_every = 0"),
    "blowup_factor1": ("name = pec_cosine",
                       "name = pec_cosine\n[output]\nblowup_factor = 1.0"),
}


@pytest.mark.parametrize("command, text, flags", [
    pytest.param(command, PEC_CONFIG.replace(*edit), [], id=f"{command}-{name}")
    for command in ("simulate", "bound")
    for name, edit in BAD_SIMULATION_VALUES.items()
] + [
    pytest.param("simulate", PEC_CONFIG.replace("safety = 0.5", "safety = 0"), [],
                 id="simulate-safety0"),
    pytest.param("dtmax-sweep", PEC_CONFIG, ["--tol", "0.5"], id="dtmax-sweep-tol-flag"),
    pytest.param("dtmax-sweep", PEC_CONFIG.replace(*BAD_SIMULATION_VALUES["energy_every0"]),
                 [], id="dtmax-sweep-energy_every0"),
    pytest.param("bound", PEC_CONFIG, ["--three-d", "--h-min-3d", "nan"],
                 id="bound-h-min-3d-nan"),
    pytest.param("bound", PEC_CONFIG, ["--three-d", "--h-min-3d", "inf"],
                 id="bound-h-min-3d-inf"),
    pytest.param("bound", PEC_CONFIG, ["--three-d", "--h-min-3d", "-1"],
                 id="bound-h-min-3d-negative"),
    pytest.param("bound", PEC_CONFIG, ["--h-min-3d", "0.25"],
                 id="bound-h-min-3d-without-three-d"),
    pytest.param("table", TABLE_SPEC, ["--tol", "0.5"], id="table-tol-flag"),
    pytest.param("table", TABLE_SPEC.replace("tol = 0.05", "tol = 0.5"), [],
                 id="table-tol-key"),
    pytest.param("table", TABLE_SPEC + "bounded_factor = 0.5\n", [],
                 id="table-unknown-bounded_factor"),
    pytest.param("table", TABLE_SPEC.replace("cells = 5", "cells = 5 0"), [],
                 id="table-cells0"),
    pytest.param("table", TABLE_SPEC.replace("orders = 1", "orders = 1 0"), [],
                 id="table-orders0"),
    pytest.param("table", TABLE_SPEC.replace("orders = 1", "orders = 1 16"), [],
                 id="table-orders16"),
    pytest.param("table", TABLE_SPEC.replace("flux = upwind", "alpha = 1.5"), [],
                 id="table-alpha"),
    pytest.param("table", TABLE_SPEC + "final_time = 0\n", [],
                 id="table-unknown-final_time0"),
    pytest.param("table", TABLE_SPEC + "final_time = nan\n", [],
                 id="table-unknown-final_time-nan"),
    pytest.param("table", TABLE_SPEC + "[material]\neps_xx = 5.0\nmu = 1.0\n", [],
                 id="table-material-section"),
    pytest.param("table", TABLE_SPEC.replace("tol = 0.05", "tol = nan"), [],
                 id="table-tol-nan"),
])
def test_bad_values_exit_2_and_write_nothing(tmp_path, capsys, command, text, flags):
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # refused before any row, report or auto dt
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bound"])
@pytest.mark.parametrize("rows, match", [
    ("0 1 0 0 1 1\n1 nan 0 0 1 1\n", "must be finite"),
    ("0 1 0 0 1 1\n1 1 0 0 1 inf\n", "must be finite"),
    ("0 1 0 0 1\n1 1 0 0 1\n", "6 columns"),
    ("0 1 0 0 1 1\n1 1 0 0 x 1\n", "could not convert"),
    ("0 1 0 0 1 1\n1 1 0 0 1 1\n1 2 0 0 2 1\n", "element 1 given twice"),
    ("0 1 0 0 1 1\n0.5 1 0 0 1 1\n", "not an integer"),
], ids=["eps-nan", "mu-inf", "five-columns", "non-numeric", "repeated", "fractional-id"])
def test_bad_material_tables_exit_2_and_write_nothing(tmp_path, capsys, command,
                                                      rows, match):
    table = write(tmp_path, "mats.txt", rows)
    text = PEC_CONFIG.replace("cells = 5", "cells = 1").replace(
        "eps_xx = 5.0\neps_xy = 1.0\neps_yx = 1.0\neps_yy = 3.0\nmu = 1.0",
        f"table = {table}")
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert "Traceback" not in err
    assert not out.exists()

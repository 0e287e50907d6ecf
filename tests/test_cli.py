import configparser
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgtd.cli import _build_parser, main
from dgtd.config import parse_config, parse_table_spec
from dgtd.errors import (ConfigError, DomainError, InvalidOrderError,
                         MaterialError, MeshError)
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


# the commands that write files, and so take --out
WRITES_OUT = ("simulate", "bound", "table")


def out_flag(command, out):
    return ["--out", str(out)] if command in WRITES_OUT else []


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
    text = (PEC_CONFIG.replace("dt = auto\nsafety = 0.5", "dt = 0.1")
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


# benchmark_case(4, 2, 0.0, "PEC") at dt 0.3: the fields overflow at step 231,
# between energy records
BLOWUP_CONFIG = (PEC_CONFIG.replace("cells = 5", "cells = 4")
                 .replace("order = 1", "order = 2")
                 .replace("dt = auto\nsafety = 0.5", "dt = 0.3")
                 .replace("final_time = 1.0", "final_time = 100.0")
                 + "\n[output]\nenergy_every = 10000\nfields = true\n")


def test_simulate_blowup_between_energy_records(tmp_path, capsys):
    cfg = write(tmp_path, "run.cfg", BLOWUP_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "blowup at step 231 (t = 69.3)\n"
    assert (out / "energy.csv").read_bytes() == (
        b"step,time,energy\n0,0.0,0.8431133979245886\n231,69.3,inf\n")
    # the fields are the last finite state, step 230's, to the last bit
    fields = (out / "fields.csv").read_bytes()
    assert fields.count(b"\n") == 1 + 32 * 6
    assert hashlib.sha256(fields).hexdigest() == (
        "28e5258c70f6074db0b89dbe787d1aa4a7adf11a23dc0e00a31e0d31e5dbf1c7")


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


@pytest.mark.parametrize("command", ["simulate", "bound", "dtmax-sweep"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_mesh_file_with_a_non_finite_vertex_exits_2(tmp_path, capsys, command, bad):
    from dgtd.mesh import save_mesh, structured_square_mesh

    mesh = tmp_path / "mesh.txt"
    save_mesh(structured_square_mesh(2), mesh)
    lines = mesh.read_text().splitlines(keepends=True)
    assert lines[2] == "-1.0 -1.0\n"  # vertex 0
    lines[2] = f"{bad} -1.0\n"
    mesh.write_text("".join(lines))
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG.replace(
        "kind = structured\ncells = 5", f"kind = file\npath = {mesh}"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg] + out_flag(command, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: vertex 0 has a non-finite coordinate: [{bad}, -1.0]\n"
    assert captured.out == ""
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "dgtd", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "dtmax-sweep" in proc.stdout


def readme_commands():
    """Each `dgtd ...` line of README's sh block, as argv lists with the
    bracketed optional flags and without them."""
    readme = (REPO / "README.md").read_text()
    lines = [line for block in readme.split("```sh\n")[1:]
             for line in block.split("```")[0].splitlines()
             if line.startswith("dgtd ")]
    assert len(lines) == 4
    for line in lines:
        bracketed = line.replace("[", "").replace("]", "")
        for text in dict.fromkeys([bracketed, line.split("[")[0]]):
            argv = text.split()[1:]
            yield pytest.param(argv, id=" ".join(argv))


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_command_lines_parse(argv):
    args = _build_parser().parse_args(argv)
    assert (REPO / args.config).is_file()


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


@pytest.mark.parametrize("initial", ["name = zero", "name = custom\nhz = 0 * x"],
                         ids=["zero", "custom-0x"])
def test_zero_initial_state_has_no_dtmax(tmp_path, capsys, initial):
    # no energy exceeds a multiple of zero, so every run would read stable
    text = PEC_CONFIG.replace("cells = 5", "cells = 4").replace("name = pec_cosine", initial)
    assert main(["dtmax-sweep", "--config", write(tmp_path, "run.cfg", text)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "zero energy" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    # simulate still runs from a zero seed
    short = write(tmp_path, "short.cfg", text.replace("final_time = 1.0", "final_time = 0.05"))
    assert main(["simulate", "--config", short, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, unused", [
    ("bound", "[time] dt, [time] safety, [time] final_time, [initial] name, "
              "[output] energy_every, [output] fields"),
    ("dtmax-sweep", "[time] dt, [time] safety, [output] energy_every, [output] fields"),
    ("simulate", None),
], ids=["bound", "dtmax-sweep", "simulate"])
def test_keys_a_command_does_not_use_are_noted(tmp_path, capsys, command, unused):
    cfg = str(SHIPPED_CONFIGS / "pec_cavity.cfg")
    out = out_flag(command, tmp_path / "out")
    assert main([command, "--config", cfg] + out) == 0
    note = f"note: {cfg}: {command} does not use {unused}\n" if unused else ""
    assert capsys.readouterr().err == note
    # a file that sets only keys the command uses gets no note
    used = PEC_CONFIG.split("[time]")[0]
    if command != "bound":
        used += "[time]\nfinal_time = 1.0\n[initial]\nname = pec_cosine\n"
    assert main([command, "--config", write(tmp_path, "used.cfg", used)] + out) == 0
    assert capsys.readouterr().err == ""


def config_pairs(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.read(path)
    return [(section, key) for section in parser.sections()
            for key in parser.options(section)]


def readme_config_block():
    readme = (REPO / "README.md").read_text()
    return readme.split("### Config format")[1].split("```ini\n")[1].split("```")[0]


def test_readme_config_block_parses(tmp_path):
    cfg = parse_config(write(tmp_path, "readme.cfg", readme_config_block()))
    assert cfg.mesh.n_elements == 2 * 10 * 10
    assert cfg.mesh.vertices.min() == -1.0 and cfg.mesh.vertices.max() == 1.0
    np.testing.assert_array_equal(cfg.materials.eps,
                                  np.broadcast_to([[5.0, 1.0], [1.0, 3.0]], (200, 2, 2)))
    np.testing.assert_array_equal(cfg.materials.mu, np.ones(200))
    assert (cfg.order, cfg.alpha, cfg.bc) == (2, 0.0, "PEC")
    assert (cfg.dt, cfg.safety, cfg.final_time) == (None, 0.9, 1.0)
    assert (cfg.initial, cfg.energy_every, cfg.fields_out, cfg.blowup_factor) == (
        "pec_cosine", 1, False, 1e6)


def test_readme_config_block_sets_what_simulate_reads(tmp_path):
    block = readme_config_block()
    assert "final_time = 1.0\n" in block
    cfg = write(tmp_path, "readme.cfg",
                block.replace("final_time = 1.0\n", "final_time = 0.01\n"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert config_pairs(out / "effective.cfg") == config_pairs(cfg)


@pytest.mark.parametrize("argv", [
    ["simulate", "--threads", "2"],
    ["bound", "--tol", "0.1"],
    ["bound", "--threads", "2"],
    ["dtmax-sweep", "--threads", "2"],
    ["dtmax-sweep", "--out", "d"],
    ["table", "--threads", "2"],
    ["table", "--tol", "0.05"],  # the spec file's tol is the one source
])
def test_unused_flags_are_refused(tmp_path, capsys, argv):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg] + out_flag(argv[0], tmp_path))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_table_command(tmp_path, capsys):
    spec = write(tmp_path, "table.cfg", """\
[sweep]
cells = 5
orders = 1
alpha = 1.0
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
    # safety scales only dt = auto
    text = PEC_CONFIG.replace("dt = auto", "dt = 0.01")
    with pytest.raises(ConfigError, match=r"unknown or unused \[time\] keys: safety"):
        parse_config(write(tmp_path, "safety.cfg", text))


@pytest.mark.parametrize("word, value", [
    ("1", True), ("Yes", True), ("true", True), ("on", True),
    ("0", False), ("no", False), ("FALSE", False), ("off", False), ("maybe", None),
])
def test_boolean_words(tmp_path, word, value):
    cfg = write(tmp_path, "run.cfg", PEC_CONFIG + f"[output]\nfields = {word}\n")
    if value is None:
        with pytest.raises(ConfigError, match=r"bad boolean for \[output\] fields: 'maybe'"):
            parse_config(cfg)
    else:
        assert parse_config(cfg).fields_out is value


def test_one_default_tolerance():
    import inspect

    from dgtd.experiments import DEFAULT_TOL, find_dtmax

    assert _build_parser().parse_args(["dtmax-sweep", "--config", "c"]).tol == DEFAULT_TOL
    assert inspect.signature(find_dtmax).parameters["tol"].default == DEFAULT_TOL
    assert SweepSpec(cells=[5], orders=[1], alpha=0.0, bc="PEC").tol == DEFAULT_TOL


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


# [initial] hz expressions with the values they must give, t = dt/2
CUSTOM_HZ = {
    "sin(pi * x) * cos(pi * y)": lambda x, y, t: np.sin(np.pi * x) * np.cos(np.pi * y),
    "2**-x": lambda x, y, t: 2.0 ** -x,
    "abs(x) - t": lambda x, y, t: np.abs(x) - t,
    "exp(-(x*x + y*y)) * cos(pi * t)":
        lambda x, y, t: np.exp(-(x * x + y * y)) * np.cos(np.pi * t),
}


def test_parse_config_custom_initial(tmp_path):
    x = np.array([0.5, -0.25, 1.0])
    y = np.array([0.0, 0.75, -1.0])
    for expr, expected in CUSTOM_HZ.items():
        text = PEC_CONFIG.replace("name = pec_cosine", f"name = custom\nhz = {expr}")
        cfg = parse_config(write(tmp_path, "c.cfg", text))
        np.testing.assert_array_equal(cfg.initial(x, y, 0.1), expected(x, y, 0.05))
        assert f"hz = {expr}\n" in cfg.effective_text


def test_parse_table_spec_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_table_spec(write(tmp_path, "t1.cfg", "[sweep]\norders = 1\nbc = PEC\n"))
    with pytest.raises(ConfigError, match="blowup_factor"):
        parse_table_spec(write(tmp_path, "t4.cfg",
                               "[sweep]\ncells = 5\norders = 1\nbc = PEC\nblowup_factor = 1e6\n"))
    for section, key in (("time", "dt = 0.1"), ("material", "mu = 1.0")):
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]"):
            parse_table_spec(write(tmp_path, "t6.cfg", "[sweep]\ncells = 5\norders = 1\n"
                                   f"bc = PEC\n[{section}]\n{key}\n"))
    # alpha is the one spelling of the flux, as in [discretization]
    for key in ("flux = upwind", "flux = fancy", "diagonal = backslash",
                "initial = zero", "final_time = 1.0", "bounded_factor = 5.0"):
        with pytest.raises(ConfigError, match=r"unknown or unused \[sweep\] keys: "
                                              + key.split()[0]):
            parse_table_spec(write(tmp_path, "t7.cfg",
                                   f"[sweep]\ncells = 5\norders = 1\nbc = PEC\n{key}\n"))
    spec = parse_table_spec(write(tmp_path, "t3.cfg", """\
[sweep]
cells = 5, 10
orders = 1 2 3
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
    assert cfg.materials.eps[1, 0, 0] == 4.0
    assert "\nmu = " not in cfg.effective_text
    # the table's last column is mu: a [material] mu beside it would be ignored
    with pytest.raises(ConfigError, match=r"unknown or unused \[material\] keys: mu"):
        parse_config(write(tmp_path, "mu.cfg",
                           text.replace(f"table = {table}", f"table = {table}\nmu = 7.0")))


# configs parse_config refuses once it builds the mesh and materials and
# checks order and alpha: (edits of PEC_CONFIG, files to write into the
# test directory {dir}, error, message). With two faults the first one a
# run meets is reported: mesh, materials, order, alpha.
MATERIALS = "eps_xx = 5.0\neps_xy = 1.0\neps_yx = 1.0\neps_yy = 3.0\nmu = 1.0"
PARSE_REFUSES = {
    "cells0": ([("cells = 5", "cells = 0")], {}, DomainError,
               "cells must be an integer >= 1, got 0"),
    "diagonal": ([("cells = 5", "cells = 5\ndiagonal = diag")], {}, DomainError,
                 "unknown diagonal 'diag'"),
    "xmax-le-xmin": ([("cells = 5", "cells = 5\nxmin = 1.0\nxmax = 1.0")], {},
                     DomainError, "degenerate domain extents"),
    "mesh-file-truncated": (
        [("kind = structured\ncells = 5", "kind = file\npath = {dir}/mesh.txt")],
        {"mesh.txt": SQUARE_MESH.rsplit("0 3 2", 1)[0]}, MeshError,
        "count on 'T' line is negative or exceeds"),
    "table-bad-row": ([("cells = 5", "cells = 1"), (MATERIALS, "table = {dir}/mats.txt")],
                      {"mats.txt": "0 1 0 0 1 1\n1.5 4 0 0 4 1\n"}, MaterialError,
                      "element id 1.5 is not an integer"),
    "order0": ([("order = 1", "order = 0")], {}, InvalidOrderError,
               "order must be between 1 and 15, got 0"),
    "alpha": ([("alpha = 0.0", "alpha = 1.5")], {}, ConfigError,
              r"alpha must lie in \[0, 1\], got 1.5"),
    "cells0-order0": ([("cells = 5", "cells = 0"), ("order = 1", "order = 0")], {},
                      DomainError, "cells must be an integer >= 1, got 0"),
    "order0-alpha": ([("order = 1", "order = 0"), ("alpha = 0.0", "alpha = 1.5")], {},
                     InvalidOrderError, "order must be between 1 and 15, got 0"),
}


@pytest.mark.parametrize("edits, files, error, match", PARSE_REFUSES.values(),
                         ids=PARSE_REFUSES.keys())
def test_parse_config_builds_and_checks_what_it_describes(tmp_path, edits, files,
                                                          error, match):
    for name, text in files.items():
        write(tmp_path, name, text)
    text = PEC_CONFIG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new.format(dir=tmp_path))
    with pytest.raises(error, match=match):
        parse_config(write(tmp_path, "run.cfg", text))


TABLE_SPEC = "[sweep]\ncells = 5\norders = 1\nalpha = 1.0\nbc = PEC\ntol = 0.05\n"
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


# [initial] values every command that reads a simulation config refuses
BAD_INITIAL = {
    "name-foo": "name = foo",
    **{f"hz-{hz}": f"name = custom\nhz = {hz}" for hz in (
        "x +", "q * x", "1.0", "(x + y).copy()", "x[0]", "sin(x=1)", "sin",
        "x(1)", "[x for x in y]", "lambda: x", '"x"', "9**9**9**9",
        "x * 9**9**9**9", "x + 1/0", "x % 2", "sin(x, y)", "x + (-8)**0.5")},
}


@pytest.mark.parametrize("command, text, flags", [
    pytest.param(command, PEC_CONFIG.replace(*edit), [], id=f"{command}-{name}")
    for command in ("simulate", "bound")
    for name, edit in BAD_SIMULATION_VALUES.items()
] + [
    pytest.param(command, PEC_CONFIG.replace("name = pec_cosine", initial), [],
                 id=f"{command}-{name}")
    for command in ("simulate", "bound", "dtmax-sweep")
    for name, initial in BAD_INITIAL.items()
] + [
    pytest.param("simulate", PEC_CONFIG.replace("safety = 0.5", "safety = 0"), [],
                 id="simulate-safety0"),
] + [
    pytest.param(command, PEC_CONFIG.replace("dt = auto", "dt = 0.01"), [],
                 id=f"{command}-safety-beside-dt")
    for command in ("simulate", "bound", "dtmax-sweep")
] + [
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
    pytest.param("table", TABLE_SPEC.replace("cells = 5", "cells ="), [],
                 id="table-cells-empty"),
    pytest.param("table", TABLE_SPEC.replace("orders = 1", "orders ="), [],
                 id="table-orders-empty"),
    pytest.param("table", TABLE_SPEC.replace("cells = 5", "cells = 5 2 5"), [],
                 id="table-cells-repeated"),
    pytest.param("table", TABLE_SPEC.replace("orders = 1", "orders = 1 1"), [],
                 id="table-orders-repeated"),
    pytest.param("table", TABLE_SPEC.replace("alpha = 1.0", "alpha = 1.5"), [],
                 id="table-alpha"),
    pytest.param("table", TABLE_SPEC.replace("alpha = 1.0", "flux = upwind"), [],
                 id="table-unknown-flux"),
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
    assert main([command, "--config", cfg] + out_flag(command, out) + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""  # refused before any row, report or auto dt
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    pytest.param("simulate", PEC_CONFIG.replace("alpha = 0.0", "alpha = x"),
                 "bad value for [discretization] alpha: 'x'", id="float"),
    pytest.param("simulate", PEC_CONFIG.replace("order = 1", "order = 1.5"),
                 "bad value for [discretization] order: '1.5'", id="int"),
    pytest.param("simulate", PEC_CONFIG.replace("dt = auto", "dt = nonsense"),
                 "bad value for [time] dt: 'nonsense'", id="dt"),
    pytest.param("simulate", PEC_CONFIG.replace("alpha = 0.0", "alpha = nan"),
                 "[discretization] alpha must be finite, got 'nan'", id="non-finite"),
    pytest.param("simulate", PEC_CONFIG + "[output]\nfields = maybe\n",
                 "bad boolean for [output] fields: 'maybe'", id="boolean"),
    pytest.param("table", TABLE_SPEC.replace("cells = 5", "cells = 5 x"),
                 "bad list for [sweep] cells: '5 x'", id="list"),
    pytest.param("simulate", PEC_CONFIG.replace("kind = structured", "kind = file"),
                 "missing [mesh] path", id="required"),
    pytest.param("table", TABLE_SPEC.replace("bc = PEC\n", ""),
                 "missing [sweep] bc", id="required-in-sweep"),
])
def test_each_read_path_reports_its_key(tmp_path, capsys, command, text, message):
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_each_key_is_recorded_with_the_value_used(tmp_path, monkeypatch):
    import dgtd.config as config

    records = []
    reject_unread = config._Reader.reject_unread

    def record_then_reject_unread(reader):
        records.append(dict(reader.read))
        reject_unread(reader)

    monkeypatch.setattr(config._Reader, "reject_unread", record_then_reject_unread)
    parse_table_spec(write(tmp_path, "table.cfg",
                           TABLE_SPEC.replace("cells = 5", "cells = 5, 10")))
    parse_config(write(tmp_path, "run.cfg", PEC_CONFIG.replace(
        "dt = auto\nsafety = 0.5", "dt = 1e-2").replace("bc = PEC", "bc = pec")))
    sweep, simulation = records
    assert sweep == {("sweep", "cells"): [5, 10], ("sweep", "orders"): [1],
                     ("sweep", "alpha"): 1.0, ("sweep", "bc"): "PEC",
                     ("sweep", "tol"): 0.05}
    assert simulation[("time", "dt")] == 0.01
    assert simulation[("discretization", "bc")] == "PEC"


def test_table_with_a_failed_row_exits_4(tmp_path, capsys, monkeypatch):
    import dgtd.experiments as experiments

    # always stable: doubling reaches DT_CAP and each search raises SweepError
    monkeypatch.setattr(experiments, "classify_stability", lambda dt, case: True)
    spec = write(tmp_path, "table.cfg", TABLE_SPEC.replace("orders = 1", "orders = 1 2"))
    out = tmp_path / "out"
    assert main(["table", "--config", spec, "--out", str(out)]) == 4
    printed = capsys.readouterr().out.splitlines()
    assert [line.split("FAILED: ")[1] for line in printed[:2]] == [
        f"SweepError: no unstable time step found below the cap {experiments.DT_CAP}"] * 2
    assert printed[2].startswith("wrote ")
    lines = (out / "table_pec_upwind.csv").read_text().splitlines()
    assert [line.split(",")[1:] for line in lines[1:]] == [
        [order, "nan", "nan", "nan"] for order in ("1", "2")]


def test_table_writes_each_row_as_its_search_ends(tmp_path, monkeypatch):
    import dgtd.cli as cli

    path = tmp_path / "out" / "table_pec_upwind.csv"
    finished, run_table = [], cli.run_table

    def checked_run_table(spec, progress):
        def check(row):
            progress(row)
            finished.append(row)
            assert path.read_text().splitlines() == ["h_min,N,dt_max,C,theory_bound"] + [
                f"{r.h_min:.6g},{r.order},{r.dt_max:.6g},{r.c:.6g},{r.theory_bound:.6g}"
                for r in finished]
        return run_table(spec, progress=check)

    monkeypatch.setattr(cli, "run_table", checked_run_table)
    spec = write(tmp_path, "table.cfg", TABLE_SPEC.replace("orders = 1", "orders = 1 2"))
    assert main(["table", "--config", spec, "--out", str(tmp_path / "out")]) == 0
    assert [row.order for row in finished] == [1, 2]
    assert len(path.read_text().splitlines()) == 3


@pytest.mark.parametrize("command", ["simulate", "dtmax-sweep"])
def test_hz_that_raises_when_sampled_exits_2(tmp_path, capsys, command):
    # 1/(t - t) passes the parse, whose sample has a numpy zero for t, and
    # divides by zero at the run's float t; bound never samples it
    text = PEC_CONFIG.replace("name = pec_cosine", "name = custom\nhz = 1/(t - t) + x")
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg] + out_flag(command, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ZeroDivisionError" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0


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


@pytest.mark.parametrize("command, files", [
    ("simulate", {"run.cfg": PEC_CONFIG.encode() + b"# \xff\n"}),
    ("table", {"run.cfg": TABLE_SPEC.encode() + b"# \xff\n"}),
    ("bound", {"mesh.txt": SQUARE_MESH.encode().replace(b"1 1", b"1 \xff"),
               "run.cfg": PEC_CONFIG.replace("kind = structured\ncells = 5",
                                             "kind = file\npath = mesh.txt").encode()}),
], ids=["simulation-config", "table-spec", "mesh-file"])
def test_undecodable_input_files_exit_2(tmp_path, capsys, monkeypatch, command, files):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    bad = next(name for name, data in files.items() if b"\xff" in data)
    assert main([command, "--config", "run.cfg", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err and "byte 0xff" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", WRITES_OUT)
def test_out_that_is_a_file_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                  command):
    import dgtd.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(cli, "run_table", refuse)
    cfg = write(tmp_path, "run.cfg", TABLE_SPEC if command == "table" else PEC_CONFIG)
    out = tmp_path / "out"
    out.write_text("")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ")
    assert "Traceback" not in err

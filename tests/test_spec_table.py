"""The conductivity and boundary-data spec table, walked kind by kind, and the README
examples that document it."""
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from fpeit.cli import main
from fpeit.conductivity import SHAPE_KINDS
from fpeit.presets import SPECS, build_boundary_data, build_field, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
# a spec of one kind of conductivity or boundary data runs with a spec of the other
OTHER = {"conductivity": {"boundary_data": {"case": "constant"}},
         "boundary_data": {"conductivity": {"variant": "constant"}}}


def readme_specs(heading: str) -> list:
    """The JSON objects of the jsonc block after ``heading`` in README.md."""
    block = README.read_text().split(f"\n{heading}\n", 1)[1].split("```jsonc\n", 1)[1]
    text = re.sub(r"//.*", "", block.split("```", 1)[0]).strip()
    decoder, specs = json.JSONDecoder(), []
    while text:
        spec, end = decoder.raw_decode(text)
        specs.append(spec)
        text = text[end:].strip()
    return specs


EXAMPLES = {"conductivity": readme_specs("Conductivity variants:"),
            "boundary_data": readme_specs("Boundary data variants:")}


def kinds(key: str):
    """(selector, name, parameter defaults) of every kind of the ``key`` spec; the name is
    None for a selector with a single entry, whose value is the spec's own."""
    for selector, entry in SPECS[key].items():
        if isinstance(entry, dict):
            yield from ((selector, name, defaults) for name, (_, defaults) in entry.items())
        else:
            yield selector, None, entry[1]


def test_readme_examples_are_valid_and_cover_every_kind():
    for key, examples in EXAMPLES.items():
        for spec in examples:
            config = config_from_dict({key: spec, **OTHER[key]})
            if "csv" not in (spec.get("variant"), *spec):  # the rest builds without a file
                build_field(config)
                build_boundary_data(config)
        for selector, name, _ in kinds(key):
            assert any(selector in spec and name in (None, spec[selector])
                       for spec in examples), f"no README example of {key} {selector} {name}"
    shapes = {shape["kind"] for spec in EXAMPLES["conductivity"]
              for shape in spec.get("shapes", ())}
    assert shapes == set(SHAPE_KINDS)


def numbers_of_every_kind():
    """(config, path) for every numeric parameter of every kind, every field of every scene
    shape kind and the scene background: ``path`` leads through ``config`` to the number."""
    for key in SPECS:
        for selector, name, defaults in kinds(key):
            for param, default in defaults.items():
                if isinstance(default, (int, float)):
                    yield pytest.param({key: {selector: name, param: default}, **OTHER[key]},
                                       (key, param), id=f"{key}-{name or selector}-{param}")
    scene = next(spec for spec in EXAMPLES["conductivity"] if spec.get("shapes"))
    yield pytest.param({"conductivity": scene, **OTHER["conductivity"]},
                       ("conductivity", "background"), id="scene-background")
    for shape in scene["shapes"]:
        for field in fields(SHAPE_KINDS[shape["kind"]]):
            first = (0, 0) if field.name == "vertices" else ()  # the first vertex's x
            yield pytest.param({"conductivity": {**scene, "shapes": [shape]},
                                **OTHER["conductivity"]},
                               ("conductivity", "shapes", 0, field.name, *first),
                               id=f"scene-{shape['kind']}-{field.name}")


@pytest.mark.parametrize("bad", [True, "1"])
@pytest.mark.parametrize("config, path", numbers_of_every_kind())
def test_a_number_that_is_not_one_exits_2(tmp_path, capsys, config, path, bad):
    config = json.loads(json.dumps(config))
    target = config
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = bad
    name = next(step for step in reversed(path) if isinstance(step, str))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**config, "N": 2, "P": 6, "S": 50, "Q": 12}))
    for command in ("solve", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and f"{name} must be a finite" in err
        assert "Traceback" not in err

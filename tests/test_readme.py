"""README.md stays in step with the config format.

Every ``ini`` example must parse, and every dotted section key the README
names in backticks must exist, or end in ``.*`` and prefix an existing key.
Rows of the old-to-new key table are the exception the other way round:
their old keys must fail closed as unknown keys, and their new keys must
exist.  ``<rat>`` in a key stands for both ``lte`` and ``nr``.
"""

import re
from pathlib import Path

import pytest

from sitelink.config import (ConfigError, ScenarioConfig, parse_config,
                             render_config)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
KEYS = {line.partition("=")[0]
        for line in render_config(ScenarioConfig()).splitlines()}
_KEY = re.compile(r"`((?:radio|phy|traffic|mobility)\.[\w.<>*]+)")
# A row of the old-to-new key table: | `old key` ... | new key ... |
_RENAME_ROW = re.compile(r"^\| *(`[^|]*)\|([^|]*)\|$", re.M)


def _known(key: str) -> bool:
    if key.endswith(".*"):
        return any(k.startswith(key[:-1]) for k in KEYS)
    return key in KEYS


def _keys(text: str) -> set[str]:
    return {found.replace("<rat>", rat)
            for found in _KEY.findall(text) for rat in ("lte", "nr")}


_INI_BLOCKS = re.findall(r"```ini\n(.*?)```", README, re.S)


@pytest.mark.parametrize("block", _INI_BLOCKS,
                         ids=[f"ini{i}" for i in range(len(_INI_BLOCKS))])
def test_ini_examples_parse(block):
    parse_config(block)


def test_named_keys_exist():
    keys = _keys(_RENAME_ROW.sub("", README))
    assert keys
    assert sorted(k for k in keys if not _known(k)) == []


def test_rename_table_old_keys_fail_closed_and_new_keys_exist():
    rows = _RENAME_ROW.findall(README)
    assert rows
    for old_cell, new_cell in rows:
        for old in _keys(old_cell):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"{old}=1")
        assert all(_known(new) for new in _keys(new_cell)), new_cell

"""Unit tests for MegaMmapConfig and the YAML-subset loader."""

import dataclasses
import glob
import os
import re

import pytest

from repro.core import MegaMmapConfig, load_yaml_subset

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_defaults_validate():
    cfg = MegaMmapConfig().validated()
    assert cfg.page_size == 64 * 1024


def test_invalid_page_size_rejected():
    with pytest.raises(ValueError):
        MegaMmapConfig(page_size=0).validated()


def test_worker_bounds_rejected():
    with pytest.raises(ValueError):
        MegaMmapConfig(workers_min=5, workers_max=2).validated()


def test_every_field_is_set_by_a_shipped_run():
    """A config field no pipeline, bench, example or script sets, and
    no command-line flag exposes, is a constant in disguise: name it
    beside its reader instead."""
    sources = [path for top in ("pipelines", "benchmarks", "examples",
                                "scripts")
               for path in glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)
               if path.endswith((".py", ".yaml"))]
    sources += glob.glob(os.path.join(ROOT, "**", "__main__.py"),
                         recursive=True)
    text = ""
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            text += fh.read()
    unset = [f.name for f in dataclasses.fields(MegaMmapConfig)
             if not re.search(rf"\b({f.name}|{f.name.replace('_', '-')})\b",
                              text)]
    assert unset == []


def test_from_dict_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config"):
        MegaMmapConfig.from_dict({"page_sise": 1024})


def test_from_yaml_roundtrip():
    cfg = MegaMmapConfig.from_yaml(
        """
        page_size: 4096
        realloc_period: 0.5
        prefetch_enabled: false
        """)
    assert cfg.page_size == 4096
    assert cfg.realloc_period == 0.5
    assert cfg.prefetch_enabled is False


def test_yaml_scalars():
    out = load_yaml_subset(
        """
        a: 1
        b: 2.5
        c: true
        d: null
        e: "quoted # not comment"
        f: bare string
        """)
    assert out == {"a": 1, "b": 2.5, "c": True, "d": None,
                   "e": "quoted # not comment", "f": "bare string"}


def test_yaml_comments_stripped():
    out = load_yaml_subset("a: 1  # trailing\n# full line\nb: 2\n")
    assert out == {"a": 1, "b": 2}


def test_yaml_nested_mapping():
    out = load_yaml_subset(
        """
        fs:
          mount: /tmp/data
          avail: 500
        net:
          provider: sockets
        """)
    assert out == {"fs": {"mount": "/tmp/data", "avail": 500},
                   "net": {"provider": "sockets"}}


def test_yaml_block_list_of_scalars():
    out = load_yaml_subset(
        """
        tiers:
          - dram
          - nvme
        """)
    assert out == {"tiers": ["dram", "nvme"]}


def test_yaml_list_of_mappings():
    out = load_yaml_subset(
        """
        fs:
          - avail: 500
            dev_type: ssd
          - avail: 1000
            dev_type: hdd
        """)
    assert out == {"fs": [{"avail": 500, "dev_type": "ssd"},
                          {"avail": 1000, "dev_type": "hdd"}]}


def test_yaml_top_level_list():
    assert load_yaml_subset("- 1\n- 2\n") == [1, 2]


def test_yaml_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        load_yaml_subset("a: 1\na: 2\n")


def test_yaml_tab_indent_rejected():
    with pytest.raises(ValueError, match="tabs"):
        load_yaml_subset("a:\n\tb: 1\n")


def test_yaml_hex_ints():
    assert load_yaml_subset("a: 0x10\n") == {"a": 16}


def test_yaml_empty_value_is_none():
    assert load_yaml_subset("a:\n") == {"a": None}

"""Run configuration: a strict JSON document with sections arch, data,
train, compress, distill, and a global seed. Unknown keys anywhere are
rejected so typos fail loudly."""

import json
import math
from dataclasses import dataclass

from . import hinge
from .data import DatasetSizeError, SyntheticDataset
from .losses import DistillConfig
from .net import ArchSpec, BlockDef
from .regularizers import DEFAULT_LAMBDA, RegularizerSpec
from .solver import CompressionConfig


class ConfigError(ValueError):
    """Malformed run configuration."""


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _check_keys(section, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, where: str, integer: bool = False, low: float | None = 0,
            strict: bool = False):
    """Type and range check of one config number; returns it unchanged.
    Every integer must fit in int64, the sizes numpy builds arrays from.
    `low` is the smallest allowed value (excluded when `strict`); None
    leaves the range to the code that uses the value."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or (isinstance(value, float) and not math.isfinite(value))):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    if isinstance(value, int) and not _INT64_MIN <= value <= _INT64_MAX:
        raise ConfigError(f"{where} must fit in a 64-bit integer, got {value!r}")
    if low is not None and (value < low or (strict and value == low)):
        raise ConfigError(f"{where} must be {'>' if strict else '>='} {low}, got {value!r}")
    return value


def _checked(section, rules: dict, where: str, other_keys=()) -> dict:
    """Reject unknown keys, then return the keys of `section` that have a
    rule, each checked by `_number`; a null value means the default."""
    _check_keys(section, set(rules) | set(other_keys), where)
    return {key: _number(section[key], f"{where}.{key}", **rules[key])
            for key in rules if section.get(key) is not None}


@dataclass
class TrainConfig:
    epochs: int = 12
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drops: tuple = (8,)
    finetune_epochs: int = 15
    finetune_lr: float = 0.001


@dataclass
class DataConfig:
    n_train: int = 256
    n_test: int = 256


@dataclass
class RunConfig:
    arch: ArchSpec
    hinge_init: str
    first_hinge_groups: str | None
    plain_hinge_groups: str | None
    data: DataConfig
    train: TrainConfig
    compress: CompressionConfig
    distill: DistillConfig
    seed: int

    def make_dataset(self) -> SyntheticDataset:
        try:
            return SyntheticDataset(seed=self.seed, classes=self.arch.classes,
                                    n_train=self.data.n_train, n_test=self.data.n_test,
                                    channels=self.arch.input_channels,
                                    height=self.arch.input_h, width=self.arch.input_w)
        except DatasetSizeError as exc:
            key = {"input": "arch.input", "classes": "arch.classes", "n_train": "data.n_train",
                   "n_test": "data.n_test"}[exc.size]
            raise ConfigError(f"{key} is too large: {exc}") from exc


# Rules for `_number`. Architecture sizes are only type-checked here;
# building the layer table checks their range.
_SIZE, _INT, _COUNT = {"integer": True, "low": None}, {"integer": True}, {"integer": True, "low": 1}
_ANY, _POSITIVE = {"low": None}, {"strict": True}
_TRAIN_RULES = {"epochs": _INT, "batch_size": _COUNT, "lr": _POSITIVE, "momentum": {},
                "weight_decay": {}, "finetune_epochs": _INT, "finetune_lr": _POSITIVE}
_COMPRESS_RULES = {"target_ratio": _ANY, "stop_margin": _ANY, "nullify_threshold": {},
                   "eta": _POSITIVE, "lr_ratio": {}, "m": _ANY, "max_epochs": _INT,
                   "batch_size": _COUNT}

_DEFAULT_BLOCKS = [{"kind": "basic", "channels": 16, "stride": 1},
                   {"kind": "basic", "channels": 32, "stride": 2}]


def _parse_arch(section: dict):
    sizes = _checked(section, {"classes": _SIZE, "stem_channels": _SIZE}, "arch",
                     other_keys={"input", "blocks", "hinge_init", "first_hinge_groups",
                                 "plain_hinge_groups"})
    inp = _checked(section.get("input", {}),
                   {"channels": _SIZE, "height": _SIZE, "width": _SIZE}, "arch.input")
    blocks = section.get("blocks", _DEFAULT_BLOCKS)
    if not isinstance(blocks, list):
        raise ConfigError(f"arch.blocks must be a list, got {blocks!r}")
    block_defs = []
    for i, bd in enumerate(blocks):
        bd_sizes = _checked(bd, {"channels": _SIZE, "stride": _SIZE}, f"arch.blocks[{i}]",
                            other_keys={"kind"})
        if "kind" not in bd or "channels" not in bd_sizes:
            raise ConfigError(f"arch.blocks[{i}] needs a kind and a channel count")
        block_defs.append(BlockDef(kind=bd["kind"], channels=bd_sizes["channels"],
                                   stride=bd_sizes.get("stride", 1)))
    try:
        arch = ArchSpec(input_channels=inp.get("channels", 1),
                        input_h=inp.get("height", 16),
                        input_w=inp.get("width", 16),
                        classes=sizes.get("classes", 4),
                        stem_channels=sizes.get("stem_channels", 16),
                        blocks=tuple(block_defs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    init = section.get("hinge_init", hinge.SVD_INIT)
    if init not in (hinge.SVD_INIT, hinge.IDENTITY_INIT):
        raise ConfigError(f"arch.hinge_init must be svd or identity, got {init!r}")
    if init == hinge.SVD_INIT:
        for entry in arch.table:
            m = entry.meta
            if entry.position is not None and m.patch_size < m.out_channels:
                raise ConfigError(
                    f"arch.hinge_init svd needs patch_size >= out_channels, but "
                    f"{entry.name} has {m.patch_size} < {m.out_channels}; "
                    "use identity init for this architecture")
    first = section.get("first_hinge_groups")
    plain = section.get("plain_hinge_groups")
    for key, val in (("first_hinge_groups", first), ("plain_hinge_groups", plain)):
        if val is not None and val not in ("rows", "columns"):
            raise ConfigError(f"arch.{key} must be rows or columns, got {val!r}")
    return arch, init, first, plain


def _parse_regularizer(section: dict) -> RegularizerSpec:
    values = _checked(section, {"lambda": {}}, "compress.regularizer", other_keys={"kind"})
    kind = section.get("kind", "l1")
    if not isinstance(kind, str) or kind not in DEFAULT_LAMBDA:
        raise ConfigError(f"unknown regularizer kind {kind!r}")
    try:
        return RegularizerSpec(kind=kind, lam=float(values.get("lambda", DEFAULT_LAMBDA[kind])))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_compress(section: dict, seed: int, weight_decay: float) -> CompressionConfig:
    kwargs = _checked(section, _COMPRESS_RULES, "compress", other_keys={"regularizer"})
    reg = _parse_regularizer(section.get("regularizer", {}))
    try:  # the phase shuffles by the run's seed and decays filters as training does
        return CompressionConfig(regularizer=reg, seed=seed, weight_decay=weight_decay,
                                 **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, {"arch", "data", "train", "compress", "distill", "seed"}, "config")
    seed = _number(doc.get("seed", 0), "seed", integer=True)

    arch, init, first, plain = _parse_arch(doc.get("arch", {}))

    data_cfg = DataConfig(**_checked(doc.get("data", {}),
                                     {"n_train": _COUNT, "n_test": _COUNT}, "data"))

    train_sec = doc.get("train", {})
    train_kwargs = _checked(train_sec, _TRAIN_RULES, "train", other_keys={"lr_drops"})
    if "lr_drops" in train_sec:
        drops = train_sec["lr_drops"]
        if not isinstance(drops, list):
            raise ConfigError(f"train.lr_drops must be a list of epochs, got {drops!r}")
        train_kwargs["lr_drops"] = tuple(_number(d, f"train.lr_drops[{i}]", integer=True)
                                         for i, d in enumerate(drops))
    train_cfg = TrainConfig(**train_kwargs)

    compress_cfg = _parse_compress(doc.get("compress", {}), seed, train_cfg.weight_decay)

    try:
        distill_cfg = DistillConfig(**_checked(
            doc.get("distill", {}), {"balance": {}, "temperature": _POSITIVE}, "distill"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(arch=arch, hinge_init=init, first_hinge_groups=first,
                     plain_hinge_groups=plain, data=data_cfg, train=train_cfg,
                     compress=compress_cfg, distill=distill_cfg, seed=seed)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)

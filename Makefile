# Convenience targets for the clumsy-packet-processor reproduction.

PYTHON ?= python

.PHONY: install test lint typecheck check check-deep bench perfbench artifacts examples trace-demo all clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# reprolint: per-file AST invariant linter over src/repro (see
# docs/LINTING.md).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint

# mypy: strict for repro.analysis, repro.telemetry, and repro.oracle;
# permissive elsewhere (configured in pyproject.toml).
typecheck:
	PYTHONPATH=src $(PYTHON) -m mypy

# Verification oracle (see docs/VERIFICATION.md): differential twins,
# metamorphic invariants, and a seeded config fuzz over all seven apps.
# Shrunk failing configs are filed in .repro-fuzz-corpus.
check:
	PYTHONPATH=src $(PYTHON) -m repro check --quick

check-deep:
	PYTHONPATH=src $(PYTHON) -m repro check --deep

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The Figures 9-12 benchmark's own contract tests (about six minutes;
# see perfbench/README.md).
perfbench:
	$(PYTHON) -m pytest perfbench -q

# Regenerate every paper artifact via the CLI (quick versions).
# Results persist in .repro-cache, so a re-run after an interrupt or a
# code change that doesn't bump store.CODE_VERSION simulates only what
# is missing (DESIGN.md section 9).
artifacts:
	PYTHONPATH=src $(PYTHON) -m repro all --cache-dir .repro-cache

# One traced run with event-log export (see README "Telemetry & tracing").
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro trace crc --out traces
	PYTHONPATH=src $(PYTHON) -m repro trace route --packets 200 --out traces

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/overclocking_study.py route 150
	PYTHONPATH=src $(PYTHON) examples/dynamic_adaptation.py
	PYTHONPATH=src $(PYTHON) examples/custom_application.py
	PYTHONPATH=src $(PYTHON) examples/operating_point.py route
	PYTHONPATH=src $(PYTHON) examples/multicore_np.py
	PYTHONPATH=src $(PYTHON) examples/avf_campaign.py

all: lint test check bench

clean:
	rm -rf build *.egg-info .pytest_cache .hypothesis .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +

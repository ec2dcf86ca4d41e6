# Convenience targets for the reproduction workflow.

PYTHON ?= python3

.PHONY: install test bench e2e-pairs experiments examples all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# alternating end-to-end pairs of BASE against the working tree
WORKLOAD ?= workload-moe
BASE ?= HEAD
PAIRS ?= 8

e2e-pairs:
	$(PYTHON) scripts/e2e_pairs.py --workload $(WORKLOAD) --base $(BASE) --pairs $(PAIRS)

experiments:
	$(PYTHON) scripts/generate_experiments_md.py > EXPERIMENTS.md

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

all: install test bench experiments

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

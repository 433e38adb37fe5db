"""repro: reproduction of "Rethinking Floating Point Overheads for Mixed
Precision DNN Accelerators" (Abdel-Aziz et al., MLSys 2021).

Subpackages
-----------
- ``repro.fp``       -- FP formats, vectorized decode, Kulisch accumulator
- ``repro.nibble``   -- temporal nibble decomposition of INT/FP operands
- ``repro.ipu``      -- the mixed-precision (MC-)IPU datapath models
- ``repro.tile``     -- cycle-accurate convolution-tile simulator
- ``repro.hw``       -- gate-level area/power models (7 nm synthesis substitute)
- ``repro.nn``       -- from-scratch NumPy DNN substrate and workload zoo
- ``repro.analysis`` -- error sweeps, exponent histograms, accuracy evals
- ``repro.experiments`` -- drivers regenerating every table/figure
"""

__version__ = "0.1.0"

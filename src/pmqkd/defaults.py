"""Default protocol constants.

These are the reference operating points used throughout the CLI and the
bundled datasets: detector and fiber characteristics, the sampling fraction
used by the tabletop measurements, and the failure-probability budget that
composes to eps_sec = 2e-10, eps_cor = 1e-15, eps_tot = 3e-10.
"""

import math

# Detection / channel constants.
E_D = 0.01            # interference misalignment error probability
P_D = 1e-8            # dark count probability per pulse per detector
F_EC = 1.16           # error correction efficiency factor
ETA_D = 0.56          # detector efficiency
ALPHA_DB_PER_KM = 0.168  # fiber attenuation coefficient

# Protocol shape.
M_SLICES = 8          # phase slice count
# The slice counts the bound chain's closed forms cover: the one statement of
# M's domain, which every boundary reads through security._check_slices.
SUPPORTED_M_SLICES = (6, 8)
P_S = 0.07            # sampling fraction for parameter estimation
N_ROUNDS = 1e11       # default data size (pulse pairs sent)

# Failure-probability budget.  eps is charged per Chernoff application (two
# applications enter the secrecy composition as 2*eps).  xi is sized so that
# 2^-xi = 1e-20, which together with eps = 0.5e-20 makes eps_sec exactly 2e-10.
EPS_CHERNOFF = 0.5e-20
EPS_KATO = 1e-10
XI = math.log2(1e20)         # privacy-amplification surplus bits
XI_PRIME = math.log2(1e15)   # error-verification bits

# Optimizer search box.
MU_BOUNDS = (1e-6, 0.1)
P_S_BOUNDS = (0.01, 0.5)

# Bundled experimental tallies (loss_db -> package data file).
BUNDLED_TALLIES = {
    35: "table_35db.csv",
    40: "table_40db.csv",
    45: "table_45db.csv",
}

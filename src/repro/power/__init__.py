"""Power modelling and PDU-style metering (paper Section VI-D)."""

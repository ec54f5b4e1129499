"""gpflab: exact desk-scale computations around greatest prime factors of
shifted products, smooth numbers, and prime-distribution discrepancies."""

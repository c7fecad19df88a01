# modular exponentiation by repeated squaring -- the core of RSA
powmod <- function(base, exp, mod) {
  result <- 1L
  b <- base %% mod
  e <- exp
  while (e > 0L) {
    if (e %% 2L == 1L) result <- (result * b) %% mod
    e <- e %/% 2L
    b <- (b * b) %% mod
  }
  result
}

rsa_encrypt_all <- function(msgs, nmsg, key, mod) {
  out <- integer(nmsg)
  for (i in 1:nmsg) {
    enc <- powmod(msgs[[i]], key, mod)
    out[[i]] <- as.integer(enc)
  }
  out
}

rsa_run <- function(msgs, nmsg, key, mod, reps) {
  acc <- 0L
  for (r in 1:reps) {
    enc <- rsa_encrypt_all(msgs, nmsg, key, mod)
    acc <- (acc + enc[[1]] + enc[[nmsg]]) %% 100000L
  }
  acc
}

pidigits_run <- function(ndigits) {
  # all-integer spigot: mini-R integers are arbitrary precision, like R+gmp
  q <- 1L; r <- 0L; t <- 1L; k <- 1L; nd <- 3L; l <- 3L
  produced <- 0L
  checksum <- 0L
  while (produced < ndigits) {
    if (4L * q + r - t < nd * t) {
      checksum <- (checksum * 10L + nd) %% 1000000L
      produced <- produced + 1L
      nr <- 10L * (r - nd * t)
      nd <- (10L * (3L * q + r)) %/% t - 10L * nd
      q <- q * 10L
      r <- nr
    } else {
      nr <- (2L * q + r) * l
      nn <- (q * (7L * k) + 2L + r * l) %/% (t * l)
      q <- q * k
      t <- t * l
      l <- l + 2L
      k <- k + 1L
      nd <- nn
      r <- nr
    }
  }
  checksum
}
